(* The assembled corpus: the Table-1 synthetic apps plus the hand-authored
   case studies, with generated APKs cached per app. *)

module Apk = Extr_apk.Apk

type entry = {
  c_app : Spec.app;
  c_apk : Apk.t Lazy.t;
  c_row : Synth.row option;  (** the Table-1 row when the app belongs to it *)
}

let mk_entry app =
  { c_app = app; c_apk = lazy (Codegen.generate app); c_row = Synth.row_of_app app.Spec.a_name }

let apk_of_app (app : Spec.app) = Codegen.generate app

(** The Table-1 evaluation set (14 open-source + 20 closed-source apps);
    Diode (Figure 3) and radio reddit (Table 3) are the hand-authored
    members of the open-source block. *)
let table1 () : entry list =
  let synth = Synth.apps () in
  List.map mk_entry (Case_studies.diode :: Case_studies.radio_reddit :: synth)

(** Case-study apps for Tables 3-6 and Figures 1/3/5. *)
let case_studies () : entry list = List.map mk_entry Case_studies.all

let builtin () = case_studies () @ table1 ()

(** The parametric stress corpus ([--gen N]): a pure function of
    [(seed, count)], so every shard rebuilding it sees the same apps. *)
let generated ~seed ~count : entry list =
  List.map mk_entry (Synth.generate ~seed ~count)

let find entries name =
  List.find_opt (fun e -> e.c_app.Spec.a_name = name) entries

let open_source entries =
  List.filter (fun e -> not e.c_app.Spec.a_closed) entries

let closed_source entries = List.filter (fun e -> e.c_app.Spec.a_closed) entries
