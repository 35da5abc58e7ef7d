(** Call graph over application methods, built with class-hierarchy
    analysis plus pluggable implicit-callback resolution.  Implicit call
    flows through thread/HTTP libraries (AsyncTask, Volley — §3.4) are
    injected by the semantics layer through the resolver hook.

    Methods are resolved on first visit, and caller queries are answered
    through the method index (BackDroid-style index-then-explore). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog

type callsite = {
  cs_stmt : Ir.stmt_id;
  cs_invoke : Ir.invoke;
  cs_callees : Ir.method_id list;  (** resolved application-method targets *)
  cs_implicit : bool;  (** true when the edge comes from a callback model *)
}

type t

type callback_resolver = Prog.t -> Ir.invoke -> Ir.method_id list
(** [resolver prog invoke] returns the application methods a library call
    will eventually invoke (e.g. [task.execute()] → [doInBackground]). *)

val no_callbacks : callback_resolver

val lazy_build :
  ?callback_resolver:callback_resolver ->
  ?callback_triggers:string list ->
  Prog.t ->
  t
(** Builds the method index only; methods are resolved (memoized) on
    first visit.  [callback_triggers] must list every invoke name the
    resolver can return callbacks for — caller queries find candidate
    implicit-edge sites through these names. *)

val callsites : t -> Ir.method_id -> callsite list
(** Call sites inside a method (resolved on first visit). *)

val sites_by_stmt : t -> Ir.method_id -> callsite list array
(** A method's call-site records indexed by statement (resolved on first
    visit; empty for a method the program lacks), for engines that keep
    one method's records at hand across its statements. *)

val callsite_at : t -> Ir.stmt_id -> callsite list
(** Call-site records anchored at one statement (possibly one explicit
    and one implicit).  O(1) after the statement's method is resolved. *)

val callers : t -> Ir.method_id -> Ir.stmt_id list
(** Statements that may call the given method: one entry per occurrence
    of the method among the callees of the call-site records at the
    candidate sites (those invoking the method's name or a callback
    trigger name), in descending statement ordinal of the method
    index. *)

val reachable_from : t -> Ir.method_id list -> Ir.Method_set.t
(** Application methods transitively reachable from the entries, following
    both explicit and implicit edges.  Iterative: safe on arbitrarily deep
    call chains. *)

val index : t -> Extr_ir.Index.t
(** The method index; lets the slicer discover demarcation points and
    field stores without a whole-program scan. *)

val resolved_count : t -> int
(** Application methods resolved so far; the pipeline derives
    [callgraph.methods_skipped] and the [slicer.skipped_method_ratio]
    gauge from it. *)

val stmt_preds : t -> Ir.method_id -> int list array option
(** Statement-level predecessor arrays, memoized on the graph and shared
    by every taint engine of the run ([None] for non-application
    methods). *)

val stmt_succs : t -> Ir.method_id -> int list array option
(** Statement-level successor arrays, memoized like {!stmt_preds}. *)
