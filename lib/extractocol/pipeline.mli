(** End-to-end Extractocol pipeline (Figure 2): APK in, reconstructed HTTP
    transactions out — program + call graph construction, network-aware
    slicing, signature extraction, pairing and dependency analysis. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Resilience = Extr_resilience.Resilience

type options = {
  op_async_heuristic : bool;  (** §3.4 heuristic: on for closed-source apps *)
  op_async_iterations : int;  (** heap-carrier hops (1 = paper default) *)
  op_augmentation : bool;  (** object-aware slice augmentation *)
  op_scope : string option;  (** restrict analysis to a class prefix (§5.3) *)
  op_context_sensitive : bool;  (** disjoint pairing contexts (Figure 5) *)
  op_restrict_to_slices : bool;  (** interpret only slice-relevant methods *)
  op_intents : bool;
      (** resolve intent-service dispatch (extension; off reproduces the
          paper's §4 limitation and Table 1's deliberate misses) *)
  op_limits : Resilience.Budget.limits;
      (** resource-governance limits for the per-run budget shared by the
          taint engines and the interpreter; {!analyze} resets the default
          degradation ledger, creates one budget, and surfaces whatever
          accumulated in the report *)
}

val default_options : options

val open_source_options : options
(** The §5.1 open-source configuration: asynchronous-event heuristic off. *)

val options_fingerprint : options -> string
(** Canonical one-line serialization of every result-affecting option —
    the configuration part of the {!Extr_store.Store} cache key and of
    the journal header [--resume] validates against. *)

type analysis = {
  an_apk : Apk.t;
  an_prog : Prog.t;
  an_cg : Callgraph.t;
  an_slices : Slicer.result;
  an_txs : Txn.t list;  (** raw (pre-dedup) transactions *)
  an_pairs : Pairing.pair list Lazy.t;
      (** the disjoint pairs (§3.3); {!analyze} forces them, in the
          ["pipeline.pairing"] phase, only when the provenance recorder or
          the metrics registry is on, since no report byte reads them *)
  an_report : Report.t;
}

val phase_names : string list
(** The Figure 2 stages in execution order.  {!analyze} records one
    telemetry span named ["pipeline.<phase>"] per stage (nested under
    ["pipeline.analyze"]) when the default tracer is enabled; the
    ["pairing"] stage runs only when something reads its pairs (see
    {!analysis}). *)

val with_library_classes : Ir.program -> Ir.program
(** Ensure the modelled library classes are present (needed to resolve
    framework superclasses). *)

val analyze : ?options:options -> Apk.t -> analysis
