(** The assembled corpus: the Table-1 synthetic apps plus the hand-authored
    case studies, with generated APKs cached per app. *)

module Apk = Extr_apk.Apk

type entry = {
  c_app : Spec.app;
  c_apk : Apk.t Lazy.t;
  c_row : Synth.row option;  (** the Table-1 row when the app belongs to it *)
}

val table1 : unit -> entry list
(** The Table-1 evaluation set: 14 open-source + 20 closed-source apps.
    Diode (Figure 3) and radio reddit (Table 3) are the hand-authored
    members of the open-source block. *)

val case_studies : unit -> entry list
(** The apps behind Tables 3-6 and Figures 1/3/5. *)

val builtin : unit -> entry list
(** The case studies, then Table 1: the corpus [--all] runs without
    [--gen]. *)

val generated : seed:int -> count:int -> entry list
(** {!Synth.generate} as corpus entries — the [--gen N] stress corpus.
    Deterministic in [(seed, count)], so shards rebuilding the corpus
    independently partition the same entry list. *)

val apk_of_app : Spec.app -> Apk.t
(** Generate the APK for an arbitrary spec (bypassing the corpus cache). *)

val find : entry list -> string -> entry option
val open_source : entry list -> entry list
val closed_source : entry list -> entry list
