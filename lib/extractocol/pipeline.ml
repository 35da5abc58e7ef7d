(* End-to-end Extractocol pipeline (Figure 2): APK in, reconstructed HTTP
   transactions out.
     1. build the program, call graph (with implicit-callback edges) and
        demarcation points;
     2. network-aware program slicing (bi-directional taint);
     3. signature extraction by flow-sensitive interpretation of the
        sliced program;
     4. transaction pairing and inter-transaction dependency analysis. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Span = Extr_telemetry.Span
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Resilience = Extr_resilience.Resilience
module Provenance = Extr_provenance.Provenance

let src = Logs.Src.create "extractocol.pipeline" ~doc:"Extractocol pipeline stages"

module Log = (val Logs.src_log src : Logs.LOG)

(* Figure 2 stages, in execution order; each becomes one telemetry span
   named "pipeline.<phase>" nested under "pipeline.analyze". *)
let phase_names =
  [
    "inject-libraries";
    "callgraph";
    "slicing";
    "interpretation";
    "scope-filter";
    "pairing";
    "report";
  ]

let m_elapsed =
  Metrics.gauge ~help:"end-to-end analysis wall-clock seconds (app)"
    "pipeline.elapsed_seconds"

let m_transactions =
  Metrics.counter ~help:"deduplicated transactions reported (app)"
    "pipeline.transactions"

(* Per-phase latency distribution, labelled by phase name.  The default
   1–100k bucket ladder tops out at 0.1s; a slicing phase can run
   seconds, so extend it to 100s. *)
let m_phase_us =
  Metrics.histogram ~help:"wall-clock per pipeline phase (us), by phase"
    ~buckets:
      [ 10.; 50.; 100.; 500.; 1_000.; 5_000.; 10_000.; 50_000.; 100_000.;
        500_000.; 1e6; 5e6; 1e7; 5e7; 1e8 ]
    "pipeline.phase_us"

(* Demand-driven slicing coverage: how much of the program the lazy call
   graph never had to resolve. *)
let m_cg_skipped =
  Metrics.counter
    ~help:"app methods never resolved by the demand-driven callgraph (run)"
    "callgraph.methods_skipped"

let m_skipped_ratio =
  Metrics.gauge
    ~help:"fraction of app methods the slicer never pulled through the callgraph (app)"
    "slicer.skipped_method_ratio"

type options = {
  op_async_heuristic : bool;  (** §3.4 heuristic: on for closed-source apps *)
  op_async_iterations : int;  (** heap-carrier hops (1 = paper default) *)
  op_augmentation : bool;  (** object-aware slice augmentation *)
  op_scope : string option;  (** restrict analysis to a class prefix (§5.3) *)
  op_context_sensitive : bool;  (** disjoint pairing contexts (Figure 5) *)
  op_restrict_to_slices : bool;
  op_intents : bool;
      (** resolve intent-service dispatch (extension; off reproduces the
          paper's §4 limitation and Table 1's deliberate misses) *)
  op_limits : Resilience.Budget.limits;
      (** resource-governance limits for the per-run budget shared by the
          taint engines and the interpreter *)
}

let default_options =
  {
    op_async_heuristic = true;
    op_async_iterations = 1;
    op_augmentation = true;
    op_scope = None;
    op_context_sensitive = true;
    op_restrict_to_slices = true;
    op_intents = false;
    op_limits = Resilience.Budget.default_limits;
  }

(** The open-source evaluation configuration of §5.1 disables the
    asynchronous-event heuristic. *)
let open_source_options = { default_options with op_async_heuristic = false }

(* Canonical one-line serialization of everything in [options] that can
   change the analysis result — the configuration half of the result
   cache key, and the fingerprint --resume checks the journal against.
   Any new option field must be added here or cached results go stale
   silently. *)
let options_fingerprint (o : options) =
  Printf.sprintf
    "async=%b;aiter=%d;aug=%b;scope=%s;ctx=%b;restrict=%b;intents=%b;steps=%d;depth=%d;deadline=%s"
    o.op_async_heuristic o.op_async_iterations o.op_augmentation
    (Option.value o.op_scope ~default:"-")
    o.op_context_sensitive o.op_restrict_to_slices o.op_intents
    o.op_limits.Resilience.Budget.bl_max_steps
    o.op_limits.Resilience.Budget.bl_max_depth
    (match o.op_limits.Resilience.Budget.bl_deadline_s with
    | None -> "-"
    | Some d -> Printf.sprintf "%g" d)

type analysis = {
  an_apk : Apk.t;
  an_prog : Prog.t;
  an_cg : Callgraph.t;
  an_slices : Slicer.result;
  an_txs : Txn.t list;  (** raw (pre-dedup) transactions *)
  an_pairs : Pairing.pair list Lazy.t;
  an_report : Report.t;
}

(** Ensure the modelled library classes are present in the program (the
    class hierarchy needs them to resolve framework superclasses). *)
let with_library_classes (p : Ir.program) : Ir.program =
  let present =
    List.filter_map
      (fun c -> if c.Ir.c_library then Some c.Ir.c_name else None)
      p.Ir.p_classes
  in
  let missing =
    List.filter (fun c -> not (List.mem c.Ir.c_name present)) Api.library_classes
  in
  { p with Ir.p_classes = p.Ir.p_classes @ missing }

let analyze ?(options = default_options) (apk : Apk.t) : analysis =
  let app = apk.Apk.manifest.Apk.mf_label in
  let phase name f =
    (* Stamp the phase on the crash barrier so an escaped exception in
       --all mode is attributed to the stage it came from. *)
    Resilience.Barrier.set_phase ("pipeline." ^ name);
    let clock = Span.clock Span.default in
    let t0 = clock () in
    Fun.protect
      ~finally:(fun () ->
        (* Timed by the tracer's clock so the histogram agrees with the
           trace; observed even on a crash, so a phase that dies still
           shows up in its latency tail. *)
        Metrics.observe m_phase_us
          ~labels:[ ("phase", name) ]
          (1e6 *. (clock () -. t0)))
      (fun () -> Span.with_span ~args:[ ("app", app) ] ("pipeline." ^ name) f)
  in
  Span.with_span ~args:[ ("app", app) ] "pipeline.analyze" @@ fun () ->
  let clock = Span.clock Span.default in
  let start = clock () in
  (* One budget per run: fuel, call depth and the deadline (anchored here)
     are shared by the taint engines and the interpreter.  Degradations
     accumulate on a fresh ledger so each app reports only its own. *)
  let budget = Resilience.Budget.create ~clock ~limits:options.op_limits () in
  Resilience.Degrade.reset Resilience.Degrade.default;
  (* The profiler table accumulates across a corpus run; marking here
     lets this run recover its own touched-method set afterwards. *)
  let prof_mark = Profile.mark Profile.default in
  let apk, prog =
    phase "inject-libraries" @@ fun () ->
    let program = with_library_classes apk.Apk.program in
    ({ apk with Apk.program }, Prog.of_program program)
  in
  let cg =
    phase "callgraph" @@ fun () ->
    (* Only the method index is built here; edges are resolved per method
       on first visit, seeded from the demarcation points the slicer finds
       through the index. *)
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  let slicer_options =
    {
      Slicer.opt_async_heuristic = options.op_async_heuristic;
      opt_async_iterations = options.op_async_iterations;
      opt_augmentation = options.op_augmentation;
      opt_scope = options.op_scope;
      opt_budget = Some budget;
    }
  in
  Log.info (fun m -> m "%s: %d app statements" app (Prog.app_stmt_count prog));
  let slices = phase "slicing" @@ fun () -> Slicer.run ~options:slicer_options prog cg in
  let interp_options =
    {
      Interp.default_options with
      Interp.io_event_heap = options.op_async_heuristic;
      io_context_sensitive = options.op_context_sensitive;
      io_restrict_to_slices = options.op_restrict_to_slices;
      io_intents = options.op_intents;
      io_max_depth = options.op_limits.Resilience.Budget.bl_max_depth;
    }
  in
  let txs =
    phase "interpretation" @@ fun () ->
    let interp =
      Interp.create ~options:interp_options ~budget ~slices prog cg apk
    in
    Interp.run interp
  in
  (* Scope filter: drop transactions anchored outside the scope. *)
  let txs =
    phase "scope-filter" @@ fun () ->
    match options.op_scope with
    | None -> txs
    | Some prefix ->
        List.filter
          (fun (tx : Txn.t) ->
            let cls = tx.Txn.tx_dp.Ir.sid_meth.Ir.id_cls in
            String.length cls >= String.length prefix
            && String.sub cls 0 (String.length prefix) = prefix)
          txs
  in
  (* No report byte depends on the disjoint pairs: they justify
     transactions in the provenance record (--explain) and feed the
     pairing.pairs series, so only a run recording either pairs here. *)
  let pairs = lazy (Pairing.pair_disjoint prog cg slices) in
  if
    Provenance.is_enabled Provenance.default
    || Metrics.is_enabled Metrics.default
  then ignore (phase "pairing" (fun () -> Lazy.force pairs));
  (* Depth clipping is non-sticky (it only widens the clipped calls), but
     it still means some call chains were not followed to the end. *)
  if Resilience.Budget.depth_clipped budget then
    Resilience.Degrade.record ~phase:"interpretation"
      ~reason:
        (Resilience.Budget.exhaustion_reason Resilience.Budget.Depth)
      (Fmt.str "calls beyond depth %d were widened to unknown"
         options.op_limits.Resilience.Budget.bl_max_depth);
  let elapsed = clock () -. start in
  let report =
    phase "report" @@ fun () ->
    Report.of_transactions
      ~degradations:(Resilience.Degrade.items Resilience.Degrade.default)
      ~app
      ~dp_count:(List.length slices.Slicer.r_dps)
      ~slice_stmts:slices.Slicer.r_stats.Slicer.st_slice_stmts
      ~total_stmts:slices.Slicer.r_stats.Slicer.st_total_stmts ~elapsed_s:elapsed txs
  in
  if Metrics.is_enabled Metrics.default then begin
    Metrics.set m_elapsed ~labels:[ ("app", app) ] elapsed;
    Metrics.incr m_transactions ~labels:[ ("app", app) ]
      ~by:(List.length report.Report.rp_transactions);
    (* Demand-driven coverage: methods the run never needed to resolve. *)
    let total_methods = List.length (Prog.app_methods prog) in
    let skipped = max 0 (total_methods - Callgraph.resolved_count cg) in
    Metrics.incr m_cg_skipped ~by:skipped;
    Metrics.set m_skipped_ratio ~labels:[ ("app", app) ]
      (if total_methods = 0 then 0.0
       else float_of_int skipped /. float_of_int total_methods)
  end;
  (* Waste join: of the methods the engines touched this run, which back
     a transaction in the final report?  A method contributes when it
     anchors a reported transaction (DP statement, origin) or owns a
     statement of a slice whose demarcation point got reported — the
     same statement evidence the provenance slice steps record per DP,
     joined directly against the slices so profiling does not require
     the provenance recorder to be on. *)
  if Profile.is_enabled Profile.default then begin
    let module Sset = Set.Make (String) in
    let touched =
      Sset.of_list (Profile.methods_since Profile.default prof_mark)
    in
    let reported_dps =
      List.fold_left
        (fun acc (tr : Report.transaction) ->
          Ir.Stmt_set.add tr.Report.tr_dp acc)
        Ir.Stmt_set.empty report.Report.rp_transactions
    in
    let contrib =
      List.fold_left
        (fun acc (tr : Report.transaction) ->
          Sset.add
            (Ir.Method_id.to_string tr.Report.tr_dp.Ir.sid_meth)
            (Sset.add (Ir.Method_id.to_string tr.Report.tr_origin) acc))
        Sset.empty report.Report.rp_transactions
    in
    let contrib =
      List.fold_left
        (fun acc (sl : Slicer.slice) ->
          if Ir.Stmt_set.mem sl.Slicer.sl_dp.Slicer.dp_stmt reported_dps then
            Ir.Stmt_set.fold
              (fun sid acc ->
                Sset.add (Ir.Method_id.to_string sid.Ir.sid_meth) acc)
              sl.Slicer.sl_stmts acc
          else acc)
        contrib
        (slices.Slicer.r_request @ slices.Slicer.r_response)
    in
    Profile.record_waste Profile.default ~scope:app
      ~touched:(Sset.cardinal touched)
      ~contributing:(Sset.cardinal (Sset.inter touched contrib))
  end;
  Log.info (fun m ->
      m "report: %d transactions after dedup (%.3fs)"
        (List.length report.Report.rp_transactions)
        elapsed);
  {
    an_apk = apk;
    an_prog = prog;
    an_cg = cg;
    an_slices = slices;
    an_txs = txs;
    an_pairs = pairs;
    an_report = report;
  }
