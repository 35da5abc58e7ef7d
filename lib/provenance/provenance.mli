(** Evidence chains behind analysis conclusions.

    A recorder accumulates, per pipeline phase, the justification for
    every derived artifact: slice membership (§3.1), taint-fact
    derivations, signature fragments with their originating Limple
    statement and api_sem rule (§3.2), pairing decisions and dependency
    edges (§3.3).  Disabled by default; every record function reads one
    mutable bool first, exactly like the telemetry registry. *)

module Ir = Extr_ir.Types

type slice_step =
  | Dp_discovered
  | Backward_taint
  | Forward_taint
  | Async_setter
  | Augmented

val slice_step_name : slice_step -> string

type fact_edge = {
  fe_stmt : Ir.stmt_id;
  fe_dir : [ `Backward | `Forward ];
  fe_fact : string;
}

type rule_app = { ru_stmt : Ir.stmt_id; ru_rule : string }

type fragment = {
  fg_tx : int;
  fg_part : string;
  fg_rule : string;
  fg_stmt : Ir.stmt_id;
}

type pair_evidence = {
  pe_dp : Ir.stmt_id;
  pe_head : Ir.method_id;
  pe_reason : string;
}

type dep_evidence = {
  de_tx : int;
  de_from_tx : int;
  de_to_field : string;
  de_reason : string;
}

type t

val create : ?enabled:bool -> unit -> t
(** A fresh recorder; [enabled] defaults to [false]. *)

val default : t
(** The global recorder the pipeline records into, disabled until
    {!set_enabled}. *)

val set_enabled : t -> bool -> unit
val is_enabled : t -> bool

val reset : t -> unit
(** Drop all recorded evidence (the enabled flag is left unchanged). *)

(** {2 Recording} — no-ops (one flag check) when disabled. *)

val record_slice_step :
  t -> dp:Ir.stmt_id -> stmt:Ir.stmt_id -> slice_step -> unit

val record_fact_edge :
  t -> dir:[ `Backward | `Forward ] -> stmt:Ir.stmt_id -> string -> unit

val record_rule : t -> stmt:Ir.stmt_id -> string -> unit

val record_fragment :
  t -> tx:int -> part:string -> rule:string -> stmt:Ir.stmt_id -> unit

val record_pair :
  t -> dp:Ir.stmt_id -> head:Ir.method_id -> reason:string -> unit

val record_dep :
  t -> tx:int -> from_tx:int -> to_field:string -> reason:string -> unit

(** {2 Queries} — chronological order. *)

val slice_steps : t -> dp:Ir.stmt_id -> (Ir.stmt_id * slice_step) list
val fact_edges_at : t -> Ir.stmt_id -> fact_edge list
val rules : t -> rule_app list
val rules_at : t -> Ir.stmt_id -> rule_app list

val fragments_of : t -> ?aliases:(int * int) list -> int -> fragment list
(** Fragments recorded for a transaction id; [aliases] maps raw
    transaction ids to their post-dedup representatives, so evidence
    recorded against merged duplicates reaches the representative. *)

val pairs_of : t -> dp:Ir.stmt_id -> pair_evidence list
val deps_of : t -> ?aliases:(int * int) list -> int -> dep_evidence list
