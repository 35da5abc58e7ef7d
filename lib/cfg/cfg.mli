(** Intra-procedural control-flow graphs over Limple method bodies: basic
    blocks, successor/predecessor edges, dominators, natural loops and a
    loop-aware topological order.  The signature builder (§3.2) processes
    basic blocks in topological order and needs to know which confluence
    points are loop headers or latches. *)

module Ir = Extr_ir.Types

type block = {
  b_id : int;
  b_first : int;  (** index of the first statement *)
  b_last : int;  (** index of the last statement (inclusive) *)
}

type t = {
  meth : Ir.meth;
  blocks : block array;
  succs : int list array;
  preds : int list array;
  block_of_stmt : int array;  (** statement index → block id *)
}

val build : Ir.meth -> t
val n_blocks : t -> int

val reachable : t -> bool array
(** Blocks reachable from the entry. *)

val dominators : t -> int list array
(** [doms.(b)] is the set of blocks dominating [b] (iterative data-flow). *)

type loop_info = {
  headers : int list;  (** loop header blocks *)
  latches : int list;  (** blocks with a back edge to a header *)
  back_edges : (int * int) list;  (** (latch, header) *)
}

val loops : t -> loop_info
(** Natural-loop detection: a back edge is an edge [u → v] where [v]
    dominates [u].  §3.2 distinguishes loop-header confluences (rep) from
    plain ones (∨). *)

val topological_order : t -> loop_info -> int list
(** Topological order of reachable blocks ignoring the back edges of
    [loops t], passed in so a caller that needs the loops too runs the
    dominator pass once — the order in which the signature builder
    visits blocks. *)

(** {1 Statement-level flow (used by the taint engines)} *)

val stmt_successors : Ir.meth -> int list array
val stmt_predecessors : Ir.meth -> int list array
val return_indices : Ir.meth -> int list
