(** Backward taint propagation (§3.1): control-flow edges are flipped and
    the tainting rules inverted — a tainted left-hand side taints the
    right-hand side, and the taint information of callee arguments
    propagates to caller arguments.  Starting from the request object at a
    demarcation point, this computes the backward (request) slice.

    One engine serves every demarcation point (DP) of an app: DPs are
    numbered [0 .. dps - 1], and every fact carries the set of DPs it
    serves.  Each DP's touched statements and facts are exactly what an
    engine for that DP alone computes, but code the DPs share is walked
    once.  An engine created without [~dps] serves one DP, 0. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Resilience = Extr_resilience.Resilience

type t

val create : ?dps:int -> Prog.t -> Callgraph.t -> t
(** An engine for [dps] DPs (default 1). *)

val inject_at : ?dps:int list -> t -> Ir.stmt_id -> Fact.t list -> unit
(** Mark facts as relevant, for the DPs [dps] (default [[0]]), at (just
    after) a statement — a demarcation point's request argument, or a
    heap-setter site added by the asynchronous-event heuristic. *)

val run : ?budget:Resilience.Budget.t -> ?counted:int list -> t -> unit
(** Propagate to a fixed point.  One worklist step is one statement
    transfer, whatever the number of DPs.  Spends from [budget] (default:
    a private 2M-step budget matching the historical bound); if the budget
    trips with work still queued, one [slicing.backward] degradation
    whose work left is {!pending} is recorded on the default ledger
    instead of silently truncating.  The distinct facts of each DP in
    [counted] (default: every DP) are added to [taint.backward.facts]:
    the DPs that took part in this round. *)

val pending : t -> int
(** Statements still queued: nonzero only after the budget tripped. *)

val touched_stmts : t -> Ir.Stmt_set.t
(** Statements contributing to the relevant values of any DP — the slice
    of a one-DP engine. *)

val all_facts : t -> Fact.Set.t
(** Union of every fact seen anywhere, for any DP, including globals that
    reached method entries — the heap carriers the §3.4 heuristic
    restarts from. *)

val touched_by_dp : t -> Ir.Stmt_set.t array
(** Element k: the statements touched for DP k — its request slice,
    without the DP statement itself. *)

val field_carriers : t -> (string * string) list array
(** Element k: the instance fields [(class, field)] of the [Ffield] facts
    in {!all_facts} that serve DP k, ascending and without duplicates —
    the heap carriers the §3.4 heuristic restarts DP k from. *)
