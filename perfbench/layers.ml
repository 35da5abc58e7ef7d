(* The traced run's per-app sequence: the public calls [Runner.run_app]
   and [Pipeline.analyze] make, in their order, each wrapped in a span,
   with the program's own counters read from [Metrics.default] at the
   same boundaries.  No library code is changed to trace it. *)

module Runner = Extr_eval.Runner
module Corpus = Extr_corpus.Corpus
module Pipeline = Extr_extractocol.Pipeline
module Interp = Extr_extractocol.Interp
module Pairing = Extr_extractocol.Pairing
module Report = Extr_extractocol.Report
module Slicer = Extr_slicing.Slicer
module Callgraph = Extr_cfg.Callgraph
module Callbacks = Extr_semantics.Callbacks
module Prog = Extr_ir.Prog
module Ir = Extr_ir.Types
module Apk = Extr_apk.Apk
module Store = Extr_store.Store
module Journal = Extr_resilience.Journal
module Resilience = Extr_resilience.Resilience
module Budget = Resilience.Budget
module Degrade = Resilience.Degrade
module Barrier = Resilience.Barrier
module Metrics = Extr_telemetry.Metrics
module Clock = Extr_telemetry.Clock
module Json = Extr_httpmodel.Json

(* Per-layer counters: (row name, registry series).  The slice-size
   histogram is summed over its request/response labels. *)
let registry_counters =
  [
    ("cfg.methods_resolved", "callgraph.methods_resolved", []);
    ("slicing.dps", "slicer.demarcation_points", []);
    ("slicing.slice_stmts", "slicer.slice_stmts", [ ("kind", "request") ]);
    ("slicing.slice_stmts", "slicer.slice_stmts", [ ("kind", "response") ]);
    ("slicing.augmented_stmts", "slicer.augmented_stmts", []);
    ("taint.backward.steps", "taint.backward.worklist_steps", []);
    ("taint.backward.facts", "taint.backward.facts", []);
    ("taint.forward.steps", "taint.forward.worklist_steps", []);
    ("taint.forward.facts", "taint.forward.facts", []);
    ("interp.statements", "interp.statements", []);
    ("interp.raw_txs", "interp.transactions", []);
    ("pairing.pairs", "pairing.pairs", []);
    ("store.hits", "cache.hits", []);
    ("store.misses", "cache.misses", []);
  ]

let read_registry () =
  Array.of_list
    (List.map
       (fun (_, series, labels) ->
         int_of_float (Metrics.value ~labels Metrics.default series))
       registry_counters)

(* One traced pass: its spans go to [tr], its counts to [totals]. *)
type ctx = {
  tr : Trace.t;
  totals : (string, int) Hashtbl.t;
  mutable last : int array;  (** registry values at the last boundary *)
}

let create tr = { tr; totals = Hashtbl.create 64; last = read_registry () }

let count ctx name n =
  Hashtbl.replace ctx.totals name
    (n + Option.value ~default:0 (Hashtbl.find_opt ctx.totals name))

let total ctx name = Option.value ~default:0 (Hashtbl.find_opt ctx.totals name)

(* A layer call: a span around [f], then the registry's deltas since the
   previous boundary, attributed to that span and added to the pass. *)
let call ctx (parent : Trace.span) name f =
  let s =
    Trace.open_ ctx.tr ~parent:parent.Trace.sp_id ~app:parent.Trace.sp_app
      ~pass:parent.Trace.sp_pass name
  in
  let v = f () in
  Trace.close s;
  let now = read_registry () in
  List.iteri
    (fun i (row, _, _) ->
      let d = now.(i) - ctx.last.(i) in
      if d <> 0 then begin
        s.Trace.sp_args <- (row, d) :: s.Trace.sp_args;
        count ctx row d
      end)
    registry_counters;
  ctx.last <- now;
  v

let app_statements (apk : Apk.t) =
  List.fold_left
    (fun acc (c : Ir.cls) ->
      if c.Ir.c_library then acc
      else
        List.fold_left
          (fun acc (m : Ir.meth) -> acc + Array.length m.Ir.m_body)
          acc c.Ir.c_methods)
    0 apk.Apk.program.Ir.p_classes

(* [Pipeline.analyze] step by step, with a budget the benchmark creates. *)
let analyze ctx (a : Trace.span) (o : Pipeline.options) (apk : Apk.t) =
  let call name f = call ctx a name f in
  let app = apk.Apk.manifest.Apk.mf_label in
  let clock = Clock.wall in
  let start = clock () in
  let budget = Budget.create ~clock ~limits:o.Pipeline.op_limits () in
  Degrade.reset Degrade.default;
  let apk, prog =
    call "ir.load" (fun () ->
        let program = Pipeline.with_library_classes apk.Apk.program in
        ({ apk with Apk.program }, Prog.of_program program))
  in
  let cg =
    call "cfg.build" (fun () ->
        Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
          ~callback_triggers:Callbacks.trigger_names prog)
  in
  let slices =
    call "slicing.run" (fun () ->
        Slicer.run
          ~options:
            {
              Slicer.opt_async_heuristic = o.Pipeline.op_async_heuristic;
              opt_async_iterations = o.Pipeline.op_async_iterations;
              opt_augmentation = o.Pipeline.op_augmentation;
              opt_scope = o.Pipeline.op_scope;
              opt_budget = Some budget;
            }
          prog cg)
  in
  let interp_options =
    {
      Interp.default_options with
      Interp.io_event_heap = o.Pipeline.op_async_heuristic;
      io_context_sensitive = o.Pipeline.op_context_sensitive;
      io_restrict_to_slices = o.Pipeline.op_restrict_to_slices;
      io_intents = o.Pipeline.op_intents;
      io_max_depth = o.Pipeline.op_limits.Budget.bl_max_depth;
    }
  in
  let txs =
    call "interp.run" (fun () ->
        Interp.run
          (Interp.create ~options:interp_options ~budget ~slices prog cg apk))
  in
  ignore (call "pairing.pair_disjoint" (fun () -> Pairing.pair_disjoint prog cg slices));
  if Budget.depth_clipped budget then
    Degrade.record ~phase:"interpretation"
      ~reason:(Budget.exhaustion_reason Budget.Depth)
      (Printf.sprintf "calls beyond depth %d were widened to unknown"
         o.Pipeline.op_limits.Budget.bl_max_depth);
  let elapsed = clock () -. start in
  let report =
    call "report.build" (fun () ->
        Report.of_transactions
          ~degradations:(Degrade.items Degrade.default)
          ~app
          ~dp_count:(List.length slices.Slicer.r_dps)
          ~slice_stmts:slices.Slicer.r_stats.Slicer.st_slice_stmts
          ~total_stmts:slices.Slicer.r_stats.Slicer.st_total_stmts
          ~elapsed_s:elapsed txs)
  in
  (report, Budget.steps_used budget)

exception Crashed of string

let protect id f =
  match Barrier.protect ~app:id f with
  | Ok v -> v
  | Error crash ->
      raise
        (Crashed
           (Printf.sprintf "%s crashed in the traced run (%s): %s" id
              crash.Barrier.cr_phase crash.Barrier.cr_exn))

(* One app in [Runner.run_app]'s order: codegen, [Store.key],
   [Store.find], [Journal.append], the analysis, the report encoding,
   [Journal.append], then [Store.store].  Returns the deterministic report
   serialization: the one the analysis produced, or the cache's verbatim
   entry on a hit. *)
let run_app ctx a ~options ~cache ~journal (id, (e : Corpus.entry)) =
  assert (options.Runner.ro_pipeline.Pipeline.op_scope = None);
  let call name f = call ctx a name f in
  let jot ev =
    Option.iter
      (fun j ->
        call "journal.append" (fun () -> Journal.append j ev);
        count ctx "journal.appends" 1)
      journal
  in
  let apk, key =
    protect id (fun () ->
        Barrier.set_phase "codegen";
        let apk = call "corpus.codegen" (fun () -> Lazy.force e.Corpus.c_apk) in
        (apk, call "store.key" (fun () ->
             Store.key ~config:(Runner.config_fingerprint options) apk)))
  in
  count ctx "corpus.stmts" (app_statements apk);
  let key_s = Store.key_to_string key in
  let finished ~status ~cached ~attempts ~txs =
    Journal.Finished
      {
        ev_app = id;
        ev_key = key_s;
        ev_status = Runner.status_name status;
        ev_cached = cached;
        ev_attempts = attempts;
        ev_txs = txs;
      }
  in
  let hit =
    Option.bind cache (fun c ->
        call "store.find" (fun () ->
            Option.bind (Store.find c key) (fun data ->
                Option.map
                  (fun (status, txs, _) -> (data, status, txs))
                  (Runner.inspect_report_json data))))
  in
  match hit with
  | Some (data, status, txs) ->
      count ctx "store.bytes" (String.length data);
      jot (finished ~status ~cached:true ~attempts:0 ~txs);
      data
  | None ->
      jot (Journal.Started { ev_app = id; ev_key = key_s; ev_attempt = 1 });
      let report, steps =
        protect id (fun () -> analyze ctx a options.Runner.ro_pipeline apk)
      in
      count ctx "budget.steps" steps;
      let data =
        call "report.encode" (fun () ->
            Json.to_string (Report.to_json ~deterministic:true report))
      in
      let txs = List.length report.Report.rp_transactions in
      count ctx "report.bytes" (String.length data);
      count ctx "report.txs" txs;
      let status =
        if report.Report.rp_degradations = [] then Runner.Ok
        else Runner.Degraded
      in
      jot (finished ~status ~cached:false ~attempts:1 ~txs);
      Option.iter
        (fun c ->
          call "store.store" (fun () -> Store.store c key data);
          count ctx "store.bytes" (String.length data))
        cache;
      data

(* [run_app] under its own span; [None] when the app crashed. *)
let app ctx ~(pass : Trace.span) ~app_id ~options ~cache ~journal entry =
  let a =
    Trace.open_ ctx.tr ~parent:pass.Trace.sp_id ~app:app_id
      ~pass:pass.Trace.sp_pass (fst entry)
  in
  let data =
    match run_app ctx a ~options ~cache ~journal entry with
    | data -> Some data
    | exception Crashed msg ->
        print_endline msg;
        None
  in
  Trace.close a;
  data
