(** The final analysis report: deduplicated transactions with signatures,
    pairings, dependency graph, slice statistics and timing — everything
    the paper's evaluation tables consume. *)

module Ir = Extr_ir.Types
module Http = Extr_httpmodel.Http
module Msgsig = Extr_siglang.Msgsig
module Resilience = Extr_resilience.Resilience

type transaction = {
  tr_id : int;
  tr_dp : Ir.stmt_id;  (** the demarcation point that produced the pair *)
  tr_request : Msgsig.request_sig;
  tr_response : Msgsig.response_sig;
  tr_deps : Txn.dep list;
  tr_origin : Ir.method_id;
  tr_dynamic_uri : bool;
  tr_srcs : string list;
  tr_degraded : bool;
      (** built under an exhausted budget: fragments may be missing *)
}

type t = {
  rp_app : string;
  rp_transactions : transaction list;
  rp_tx_aliases : (int * int) list;
      (** raw transaction id â representative id after {!dedup} *)
  rp_dp_count : int;
  rp_slice_fraction : float;
  rp_slice_stmts : int;
  rp_total_stmts : int;
  rp_elapsed_s : float;
  rp_degradations : Resilience.Degrade.degradation list;
      (** phases that bailed before finishing (budget / deadline), in
          occurrence order; empty = the analysis ran to completion *)
}

val same_signature : Txn.t -> Txn.t -> bool
(** Protocol-message identity: method, URI regex, and both body
    signatures coincide. *)

val dedup : Txn.t list -> Txn.t list * (int, int) Hashtbl.t
(** Deduplicate raw transactions (distinct call contexts can produce the
    same message), merging consumers/dependencies into representatives and
    remapping dependency sources; returns the id map. *)

val of_transactions :
  ?degradations:Resilience.Degrade.degradation list ->
  app:string ->
  dp_count:int ->
  slice_stmts:int ->
  total_stmts:int ->
  elapsed_s:float ->
  Txn.t list ->
  t

(** {1 Queries used by the evaluation} *)

val requests_by_method : t -> Http.meth -> transaction list

val paired : t -> transaction list
(** Transactions whose response body is processed by the app (the "#Pair"
    column of Table 1). *)

val request_body_kind : transaction -> [ `Query | `Json | `Xml | `Text ] option
val response_body_kind : transaction -> [ `Json | `Xml | `Text ] option

val json_of_degradation :
  Resilience.Degrade.degradation -> Extr_httpmodel.Json.t
(** One element of a report's [degradations] array. *)

val degradation_of_json :
  Extr_httpmodel.Json.t -> Resilience.Degrade.degradation option
(** The inverse of {!json_of_degradation}; [None] for an element of
    another shape. *)

val to_json :
  ?provenance:Extr_httpmodel.Json.t ->
  ?deterministic:bool ->
  t ->
  Extr_httpmodel.Json.t
(** Machine-readable export of the full report (transactions with
    request/response signatures as anchored regexes and shape strings,
    dependencies, consumers, slice statistics).  [provenance] appends the
    evidence chains (see {!Explain.to_json}) as a "provenance" member.
    [deterministic] (default false) zeroes the wall-clock member so two
    runs over identical inputs serialize byte-identically — the form the
    result cache stores and [--resume] reproduces. *)

val to_dot : t -> string
(** Render the inter-transaction dependency graph (the structure behind
    Figure 1) in Graphviz DOT: one node per transaction, one edge per
    dependency labelled with the response path, the consumed field and
    any mediator (e.g. a database table). *)

(** {1 Printing} *)

val pp_transaction : Format.formatter -> transaction -> unit
val pp : Format.formatter -> t -> unit
