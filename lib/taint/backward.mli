(** Backward taint propagation (§3.1): control-flow edges are flipped and
    the tainting rules inverted — a tainted left-hand side taints the
    right-hand side, and the taint information of callee arguments
    propagates to caller arguments.  Starting from the request object at a
    demarcation point, this computes the backward (request) slice. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Resilience = Extr_resilience.Resilience

type t

val create : Prog.t -> Callgraph.t -> t

val inject_at : t -> Ir.stmt_id -> Fact.t list -> unit
(** Mark facts as relevant at (just after) a statement — the demarcation
    point's request argument, or a heap-setter site added by the
    asynchronous-event heuristic. *)

val inject_at_returns : t -> Ir.method_id -> Fact.t list -> unit
(** Inject at every return statement (the reverse-flow entries). *)

val run : ?budget:Resilience.Budget.t -> t -> unit
(** Propagate to a fixed point.  Spends from [budget] (default: a private
    2M-step budget matching the historical bound); if the budget trips
    with work still queued, a [slicing.backward] degradation is recorded
    on the default ledger instead of silently truncating. *)

val touched_stmts : t -> Ir.Stmt_set.t
(** Statements contributing to the relevant values — the slice. *)

val all_facts : t -> Fact.Set.t
(** Union of every fact seen anywhere, including globals that reached
    method entries — the heap carriers the §3.4 heuristic restarts from. *)
