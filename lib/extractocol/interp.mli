(** The flow-sensitive signature-building interpretation (§3.2).

    Starting from each event origin (activity lifecycle methods,
    registered UI/timer/push callbacks), the interpreter executes the
    application abstractly: basic blocks are processed in topological
    order of the intra-procedural control-flow graph, signature databases
    (variable → abstract value, plus a functional heap) merge at
    confluence points with disjunction, and loop-variant string parts are
    widened with [rep].  Demarcation-point calls finalize transactions;
    each call-string context yields its own transaction, which is how
    request/response pairs stay disjoint under code reuse (§3.3,
    Figure 5). *)

module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Resilience = Extr_resilience.Resilience

type options = {
  io_max_depth : int;  (** call-inlining depth bound *)
  io_event_heap : bool;
      (** persist receiver heap state from registration into callbacks —
          the behavioural analogue of the §3.4 asynchronous-event
          heuristic.  Off: callbacks run on fresh objects (FlowDroid's
          arbitrary-ordering assumption) and heap-carried request parts
          are lost. *)
  io_restrict_to_slices : bool;
      (** only follow calls into methods relevant to some slice *)
  io_context_sensitive : bool;
      (** distinct transaction per call string; off = one transaction per
          demarcation statement (the Figure-5 failure mode, for the
          pairing ablation) *)
  io_intents : bool;
      (** resolve constant-action intent-service dispatch (extension;
          off reproduces the paper's §4 limitation) *)
  io_naive_order : bool;
      (** process blocks in reverse topological order and iterate to a
          fixpoint — the slow worklist-style baseline of §3.2's
          scalability argument (ablation only) *)
}

val default_options : options

type t
(** Interpreter instance: program, call graph, options, and the
    accumulated transaction store. *)

val create :
  ?options:options ->
  ?budget:Resilience.Budget.t ->
  ?slices:Slicer.result ->
  Prog.t ->
  Callgraph.t ->
  Apk.t ->
  t
(** Build an interpreter.  When [slices] is given (the normal pipeline),
    interpretation is restricted to slice-relevant methods and callbacks;
    without it the whole program is executed abstractly.  [budget]
    governs fuel, call depth and the wall-clock deadline (default: a
    private 3M-statement budget matching the historical bound). *)

val run : t -> Txn.t list
(** Run the whole app: lifecycle entry points first, then registered
    callbacks (with or without persistent heap state per options; a
    second sweep over the cumulative event heap lets transactions observe
    state stored by other callbacks).  Returns the finalized
    transactions in creation order, deduplicated across passes.

    If the budget trips mid-run, remaining basic blocks are skipped at
    block granularity (never mid-block), every transaction is marked
    {!Txn.t.tx_degraded}, and an [interpretation] degradation is
    recorded on the default ledger — the run still returns normally. *)
