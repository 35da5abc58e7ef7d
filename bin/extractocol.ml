(* The Extractocol command-line interface: analyze a corpus app (or a
   textual Limple program) and print the reconstructed HTTP transactions,
   signatures, pairings and dependency graph. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Apk = Extr_apk.Apk
module Report = Extr_extractocol.Report
module Pipeline = Extr_extractocol.Pipeline
module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Obfuscator = Extr_apk.Obfuscator
module Telemetry = Extr_telemetry
module Provenance = Extr_provenance.Provenance
module Explain = Extr_extractocol.Explain
module Resilience = Extr_resilience.Resilience
module Retry = Extr_resilience.Retry
module Fault = Extr_resilience.Fault
module Runner = Extr_eval.Runner
module Pool = Extr_eval.Pool
module Progress = Extr_eval.Progress
module Stats = Extr_eval.Stats
module Merge = Extr_eval.Merge
module Store = Extr_store.Store

open Cmdliner

(* Exit codes (documented in the man page):
     0   analysis completed cleanly
     1   usage error (unknown app, unreadable input, write failure)
     2   an app crashed behind the fault barrier (--all) and was quarantined
     3   analysis completed, but with degradations or unmatched requests
         (for `merge`: artifacts were quarantined during the merge)
     4   `merge` only: shards or apps are missing — the merge is partial
     99  an injected kill fired at a pipeline phase (--inject test hook)
     130 SIGINT/SIGTERM interrupted a corpus run (partial results printed) *)
let exit_ok = 0
let exit_usage = 1
let exit_crashed = 2
let exit_degraded = 3
let exit_partial = 4
let exit_killed = 99
let exit_interrupted = 130

let list_apps () =
  Fmt.pr "available corpus apps:@.";
  List.iter
    (fun (e : Corpus.entry) ->
      Fmt.pr "  %-28s (%s, %d endpoints)@." e.Corpus.c_app.Spec.a_name
        (if e.Corpus.c_app.Spec.a_closed then "closed-source" else "open-source")
        (List.length e.Corpus.c_app.Spec.a_endpoints))
    (Corpus.builtin ());
  0

let setup_logs level =
  match level with
  | None -> Telemetry.Log_setup.init ()
  | Some s -> (
      match Telemetry.Log_setup.level_of_string s with
      | Ok lvl -> Telemetry.Log_setup.init_opt lvl
      | Error msg ->
          Fmt.epr "%s@." msg;
          exit exit_usage)

(* §5.1 signature validity: match every archived request against the
   extracted signatures and report coverage. *)
let validate_trace (report : Report.t) path =
  let src = In_channel.with_open_text path In_channel.input_all in
  match Extr_httpmodel.Har.of_string src with
  | None ->
      Fmt.epr "could not parse trace archive %s@." path;
      exit_usage
  | Some trace ->
      let requests = Extr_httpmodel.Http.trace_requests trace in
      let matched, unmatched =
        List.partition
          (fun req ->
            List.exists
              (fun tr ->
                Extr_siglang.Msgsig.request_matches tr.Report.tr_request req)
              report.Report.rp_transactions)
          requests
      in
      Fmt.pr "trace %s: %d/%d requests match a signature@." trace.Extr_httpmodel.Http.tr_app
        (List.length matched)
        (List.length requests);
      List.iter
        (fun (req : Extr_httpmodel.Http.request) ->
          Fmt.pr "  unmatched: %a@." Extr_httpmodel.Http.pp_request req)
        unmatched;
      if unmatched = [] then exit_ok else exit_degraded

(* Every output file goes through here: a failed write exits 1. *)
let try_write write path =
  try write path
  with Sys_error msg ->
    Fmt.epr "cannot write output: %s@." msg;
    exit exit_usage

(* A run's telemetry, in single-app and --all mode alike.  The one rule
   that turns the recorders on: the tracer for every output that weighs
   spans (the Chrome trace, and the phase rollup and folded export of the
   profile), the metrics registry for --metrics-out, the method profiler
   for --profile and --profile-out; forked --all workers inherit them and
   ship what they record back with each result.  It returns the one
   epilogue both modes end in, over the span lanes: the coordinator's on
   lane 0, then one per pool worker ((pid, spans), in pid order; none for
   a single-app or sequential run).  The profile is one (snapshot, phase
   rollup) pair: --profile-out encodes it, with the collapsed-stack
   FILE.folded companion for flamegraph tools, and --profile prints it,
   the view `stats --profile` prints from the artifact. *)
let telemetry ~trace_out ~metrics_out ~profile ~profile_out =
  let profiling = profile || profile_out <> None in
  if trace_out <> None || profiling then
    Telemetry.Span.set_enabled Telemetry.Span.default true;
  if metrics_out <> None then
    Telemetry.Metrics.set_enabled Telemetry.Metrics.default true;
  if profiling then
    Telemetry.Profile.set_enabled Telemetry.Profile.default true;
  fun workers ->
    let lanes =
      ("coordinator", 0, Telemetry.Span.spans Telemetry.Span.default)
      :: List.mapi
           (fun i (pid, spans) ->
             (Printf.sprintf "worker %d" pid, i + 1, spans))
           workers
    in
    let spans = List.map (fun (_, _, spans) -> spans) lanes in
    Option.iter
      (try_write (fun path ->
           Telemetry.Export.write_file path
             (Telemetry.Export.chrome_trace_lanes lanes)))
      trace_out;
    Option.iter
      (try_write (fun path ->
           Telemetry.Export.write_metrics path Telemetry.Metrics.default))
      metrics_out;
    if profiling then begin
      let view =
        ( Telemetry.Profile.snapshot Telemetry.Profile.default,
          Telemetry.Export.phase_rollup spans )
      in
      Option.iter
        (try_write (fun path ->
             Telemetry.Export.write_file path
               (Telemetry.Export.profile_json view);
             Telemetry.Export.write_file (path ^ ".folded")
               (Telemetry.Export.folded_lanes spans)))
        profile_out;
      if profile then Fmt.epr "%a@?" Telemetry.Export.pp_profile view
    end

let analyze_app name scope async intents obfuscate obf_libs limple_file json dot
    validate explain provenance_out limits finish_telemetry =
  let apk =
    match limple_file with
    | Some path ->
        let src = In_channel.with_open_text path In_channel.input_all in
        let program = Extr_ir.Parser.parse_program src in
        (* No manifest on the textual path: treat every Activity subclass
           as a launchable activity so lifecycle entries exist. *)
        let activities =
          List.filter_map
            (fun (c : Ir.cls) ->
              match c.Ir.c_super with
              | Some s
                when (not c.Ir.c_library)
                     && s = Extr_semantics.Api.activity ->
                  Some c.Ir.c_name
              | Some _ | None -> None)
            program.Ir.p_classes
        in
        Apk.make ~package:"cli.input" ~activities program
    | None -> (
        match Corpus.find (Corpus.builtin ()) name with
        | Some e -> Lazy.force e.Corpus.c_apk
        | None ->
            Fmt.epr "app %S not found; use --list to enumerate@." name;
            exit exit_usage)
  in
  let apk = if obfuscate then fst (Obfuscator.obfuscate apk) else apk in
  let apk =
    if obf_libs then begin
      (* Adversarial case: obfuscate the library surface, then recover it
         with the §3.4 signature-similarity de-obfuscation. *)
      let obf, _ = Obfuscator.obfuscate_libraries apk in
      let restored, mapping = Extr_apk.Deobfuscator.deobfuscate obf in
      Fmt.pr "library de-obfuscation recovered %d classes, %d methods@."
        (List.length mapping.Extr_apk.Deobfuscator.dm_classes)
        (List.length mapping.Extr_apk.Deobfuscator.dm_methods);
      restored
    end
    else apk
  in
  let options =
    {
      Pipeline.default_options with
      Pipeline.op_scope = scope;
      op_async_heuristic = async;
      op_intents = intents;
      op_limits = limits;
    }
  in
  let provenance_on = explain <> None || provenance_out <> None in
  if provenance_on then Provenance.set_enabled Provenance.default true;
  let analysis = Pipeline.analyze ~options apk in
  let evidence = if provenance_on then Some (Explain.gather analysis) else None in
  Option.iter
    (try_write (fun path ->
         Telemetry.Export.write_file path
           (Extr_httpmodel.Json.to_string
              (Report.to_json
                 ?provenance:(Option.map Explain.to_json evidence)
                 analysis.Pipeline.an_report))))
    provenance_out;
  let code =
    match validate with
    | Some path -> validate_trace analysis.Pipeline.an_report path
    | None -> (
        match explain with
        | Some want -> (
            (* The human-readable evidence tree: statement → rule → fragment
               per transaction (all of them, or just TX_ID). *)
            let evs = Option.value evidence ~default:[] in
            let evs =
              match want with
              | None -> evs
              | Some id ->
                  List.filter
                    (fun (ev : Explain.tx_evidence) ->
                      ev.Explain.ev_tx.Report.tr_id = id)
                    evs
            in
            match (want, evs) with
            | Some id, [] ->
                Fmt.epr "no transaction #%d in the report (try --explain)@." id;
                exit_usage
            | _ ->
                List.iter
                  (Fmt.pr "%a" (Explain.pp_tree analysis.Pipeline.an_prog))
                  evs;
                0)
        | None ->
            if json then
              Fmt.pr "%s@."
                (Extr_httpmodel.Json.to_string
                   (Report.to_json
                      ?provenance:(Option.map Explain.to_json evidence)
                      analysis.Pipeline.an_report))
            else if dot then
              Fmt.pr "%s" (Report.to_dot analysis.Pipeline.an_report)
            else Fmt.pr "%a@." Report.pp analysis.Pipeline.an_report;
            if analysis.Pipeline.an_report.Report.rp_degradations <> [] then
              exit_degraded
            else exit_ok)
  in
  finish_telemetry [];
  code

(* ------------------------------------------------------------------ *)
(* Batch mode: the whole corpus behind per-app fault isolation          *)
(* ------------------------------------------------------------------ *)

(* One summary row per app, printed live as results arrive. *)
let print_result (a : Runner.app_result) =
  let provenance =
    if a.Runner.ar_resumed then "  [resumed]"
    else if a.Runner.ar_cached then "  [cached]"
    else ""
  in
  (match a.Runner.ar_status with
  | Runner.Quarantined ->
      Fmt.pr "%-28s %-11s %5s %13s %8s %8s%s@." a.Runner.ar_app "quarantined"
        "-" "-"
        (string_of_int a.Runner.ar_attempts)
        "-" provenance
  | status ->
      Fmt.pr "%-28s %-11s %5d %13d %8d %7.2fs%s@." a.Runner.ar_app
        (Runner.status_name status) a.Runner.ar_txs
        (List.length a.Runner.ar_degradations)
        a.Runner.ar_attempts a.Runner.ar_elapsed_s provenance);
  List.iter
    (fun dg -> Fmt.pr "    %a@." Resilience.Degrade.pp_degradation dg)
    a.Runner.ar_degradations;
  Option.iter
    (fun crash ->
      Fmt.epr "%a@." Resilience.Barrier.pp_crash crash;
      if crash.Resilience.Barrier.cr_backtrace <> "" then
        Fmt.epr "%s@." crash.Resilience.Barrier.cr_backtrace)
    a.Runner.ar_crash

(* A flag value the parser accepts but the run cannot honour: exit 1,
   naming the flag, before any app is analyzed. *)
let refuse fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@." msg;
      exit exit_usage)
    fmt

let limits_of_flags max_steps max_depth deadline =
  if max_steps < 1 then refuse "--max-steps %d: N must be positive" max_steps;
  if max_depth < 0 then
    refuse "--max-depth %d: N must not be negative" max_depth;
  (* [not (s > 0.)] also refuses nan, which no clock ever exceeds. *)
  (match deadline with
  | Some s when not (s > 0.) ->
      refuse "--deadline %g: SECONDS must be positive" s
  | Some _ | None -> ());
  {
    Resilience.Budget.bl_max_steps = max_steps;
    bl_max_depth = max_depth;
    bl_deadline_s = deadline;
  }

let run_all limits journal resume cache_dir report_out retries jobs shard gen
    gen_seed progress hang_timeout finish_telemetry =
  if jobs < 0 then refuse "--jobs %d: N must not be negative" jobs;
  if retries < 1 then refuse "--retries %d: N must be at least 1" retries;
  (* Table 1 plus the case studies by default, or --gen COUNT synthetic
     apps from the seeded parametric generator.  The corpus tag folds the
     generator's identity into the configuration fingerprint, so
     generated-corpus journals and caches never mingle with the real
     corpus', and [merge] reads the corpus back from it. *)
  let entries, corpus_tag =
    match gen with
    | Some count when count < 0 ->
        refuse "--gen %d: COUNT must not be negative" count
    | Some count ->
        ( Corpus.generated ~seed:gen_seed ~count,
          Some (Runner.corpus_tag ~seed:gen_seed ~count) )
    | None -> (Corpus.builtin (), None)
  in
  (* SIGINT/SIGTERM unwind the run as Barrier.Interrupted: the runner
     commits what it has read, returns the partial results, and we
     still print the table below. *)
  List.iter
    (fun s ->
      Sys.set_signal s
        (Sys.Signal_handle (fun _ -> raise Resilience.Barrier.Interrupted)))
    [ Sys.sigint; Sys.sigterm ];
  let options =
    {
      Runner.default_options with
      Runner.ro_pipeline =
        { Pipeline.default_options with Pipeline.op_limits = limits };
      ro_policy = { Retry.rp_max_attempts = retries };
      ro_journal = journal;
      ro_resume = resume;
      ro_cache_dir = cache_dir;
      ro_jobs = (if jobs = 0 then Pool.default_jobs () else jobs);
      ro_shard = shard;
      ro_corpus_tag = corpus_tag;
      ro_hang_timeout = hang_timeout;
    }
  in
  (* The heartbeat writes to stderr (a rewriting line on a terminal,
     periodic lines otherwise); the summary table keeps stdout. *)
  let live =
    if progress then
      let mode =
        if Unix.isatty Unix.stderr then Progress.Tty else Progress.Lines
      in
      Some
        (Progress.create ~mode ~total:(List.length entries)
           ~emit:(fun s ->
             output_string stderr s;
             flush stderr)
           ())
    else None
  in
  Fmt.pr "%-28s %-11s %5s %13s %8s %8s@." "app" "status" "txs" "degradations"
    "attempts" "elapsed";
  match
    Runner.run
      ~on_result:(fun r ->
        print_result r;
        Option.iter (fun p -> Progress.on_result p r) live)
      ~on_journal:(fun ~at ev ->
        Option.iter (fun p -> Progress.on_journal p ~at ev) live)
      ~on_state:(fun ~busy ~idle ~pending ->
        Option.iter (fun p -> Progress.on_state p ~busy ~idle ~pending) live)
      options entries
  with
  | Error msg ->
      Fmt.epr "%s@." msg;
      exit_usage
  | Ok run ->
      Option.iter Progress.finish live;
      let count st =
        List.length
          (List.filter (fun a -> a.Runner.ar_status = st) run.Runner.rn_results)
      in
      let cached =
        List.length
          (List.filter (fun a -> a.Runner.ar_cached) run.Runner.rn_results)
      in
      Fmt.pr "%d apps: %d ok, %d degraded, %d quarantined (%d from cache)@."
        (List.length run.Runner.rn_results)
        (count Runner.Ok) (count Runner.Degraded)
        (count Runner.Quarantined)
        cached;
      if run.Runner.rn_quarantined <> [] then
        Fmt.pr "quarantined: %s@."
          (String.concat ", " run.Runner.rn_quarantined);
      if run.Runner.rn_interrupted then
        Fmt.pr "interrupted: partial results (resume with --resume)@.";
      Option.iter
        (try_write (fun path ->
             Telemetry.Export.write_file path
               (Runner.report_json
                  (* A shard's envelope records its shard identity; the
                     unsharded fingerprint is identical to the base, so
                     merge and plain runs share one code path. *)
                  ~config:(Runner.journal_fingerprint options)
                  run)))
        report_out;
      finish_telemetry run.Runner.rn_worker_spans;
      Runner.exit_code run

(* Optional, so that the refusal table sees an APP given under --all or
   --list; single-app mode defaults it. *)
let name_arg =
  let doc = "Corpus app to analyze (see --list; default: radio reddit)." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let list_flag =
  let doc = "List the corpus apps and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let scope_arg =
  let doc = "Restrict analysis to classes with this prefix (e.g. com.kayak)." in
  Arg.(value & opt (some string) None & info [ "scope" ] ~docv:"PREFIX" ~doc)

let async_flag =
  let doc = "Enable the asynchronous-event heuristic (default: on)." in
  Arg.(value & opt bool true & info [ "async-heuristic" ] ~doc)

let intents_flag =
  let doc =
    "Resolve intent-service dispatch with constant actions (extension:\n\
     lifts the paper's §4 limitation; off by default)."
  in
  Arg.(value & flag & info [ "intents" ] ~doc)

let obfuscate_flag =
  let doc = "ProGuard-style obfuscate the APK before analysis." in
  Arg.(value & flag & info [ "obfuscate" ] ~doc)

let obf_libs_flag =
  let doc =
    "Obfuscate the library surface, then recover it with the signature-\
     similarity de-obfuscation before analyzing (the adversarial §3.4 case)."
  in
  Arg.(value & flag & info [ "obfuscate-libraries" ] ~doc)

let json_flag =
  let doc = "Emit the report as JSON instead of the textual form." in
  Arg.(value & flag & info [ "json" ] ~doc)

let log_level_arg =
  let doc =
    "Logging level: $(b,quiet), $(b,app), $(b,error), $(b,warning),\n\
     $(b,info) or $(b,debug) (default warning).  Pipeline stages log\n\
     statement counts, slice sizes and raw transaction counts at info."
  in
  Arg.(value & opt (some string) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let dot_flag =
  let doc = "Emit the transaction dependency graph in Graphviz DOT form." in
  Arg.(value & flag & info [ "dot" ] ~doc)

let validate_trace_arg =
  let doc =
    "Validate an archived traffic trace (fuzz_trace JSON) against the\n\
     extracted signatures instead of printing the report."
  in
  Arg.(
    value & opt (some file) None & info [ "validate-trace" ] ~docv:"FILE" ~doc)

(* The old name of --validate-trace, kept out of the manual and only to
   be refused: without it, cmdliner's prefix matching would take
   [--trace FILE] for --trace-out and write a Chrome trace over the
   archive. *)
let old_trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docs:Manpage.s_none)

let limple_arg =
  let doc = "Analyze a textual Limple program instead of a corpus app." in
  Arg.(value & opt (some file) None & info [ "limple" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the pipeline phase spans\n\
     (open it in Perfetto or chrome://tracing).  Under $(b,--all --jobs N)\n\
     the traces of every worker process are merged into one file: the\n\
     coordinator on lane 0 and one named lane per worker pid, all on a\n\
     single time axis."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let progress_flag =
  let doc =
    "Live progress for $(b,--all) on stderr: apps done/total,\n\
     ok/degraded/quarantined/cached counts, the worker pool's\n\
     busy/idle/queued shape and an ETA.  A rewriting status line when\n\
     stderr is a terminal, periodic $(b,progress:) lines otherwise."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write a flat JSON snapshot of the telemetry metrics registry\n\
     (slicer/taint/interp/pairing counters and histograms)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~docv:"FILE" ~doc)

let profile_flag =
  let doc =
    "Enable the span tracer and the method-level profiler and print the\n\
     run's profile to stderr afterwards: cumulative and self time per\n\
     phase, summed over every worker; the 20 hottest (method, phase)\n\
     rows by self time, with budget fuel, worklist visits and facts\n\
     produced; and one waste row per app.  Works with and without\n\
     $(b,--all); $(b,extractocol stats --profile FILE) prints the same\n\
     view from a $(b,--profile-out) artifact."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_out_arg =
  let doc =
    "Enable the method-level profiler and write its artifact to FILE:\n\
     per-method time/fuel/visits/facts rows, the per-app waste summary\n\
     and a per-phase rollup as JSON, plus a collapsed-stack\n\
     $(i,FILE).folded companion (feed it to flamegraph.pl or\n\
     speedscope).  Under $(b,--all --jobs N) the workers' per-task\n\
     profile deltas are merged so the aggregate matches a sequential\n\
     run.  $(b,extractocol stats --profile FILE) prints the artifact\n\
     offline as $(b,--profile) would."
  in
  Arg.(
    value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)

let explain_arg =
  let doc =
    "Print the evidence chain behind every transaction (slice steps,\n\
     taint facts, api_sem rules, signature fragments, pairing and\n\
     dependency justifications) instead of the report.  Use\n\
     $(b,--explain=TX_ID) for a single transaction; TX_ID must not be\n\
     negative."
  in
  Arg.(
    value
    & opt ~vopt:(Some None) (some (some ~none:"all" int)) None
    & info [ "explain" ] ~docv:"TX_ID" ~doc)

let provenance_out_arg =
  let doc =
    "Write the JSON report with the per-transaction evidence chains\n\
     attached as a \"provenance\" member."
  in
  Arg.(
    value & opt (some string) None & info [ "provenance-out" ] ~docv:"FILE" ~doc)

let max_steps_arg =
  let doc =
    "Step budget shared by the taint engines and the interpreter:\n\
     every worklist iteration and interpreted statement spends one step.\n\
     Exhaustion degrades the analysis (recorded in the report) instead of\n\
     aborting it.  N must be positive."
  in
  Arg.(
    value
    & opt int Resilience.Budget.default_limits.Resilience.Budget.bl_max_steps
    & info [ "max-steps" ] ~docv:"N" ~doc)

let max_depth_arg =
  let doc =
    "Call-inlining depth bound for the interpreter; calls beyond it are\n\
     widened to unknown (and reported as a degradation when clipping\n\
     occurs).  N must not be negative."
  in
  Arg.(
    value
    & opt int Resilience.Budget.default_limits.Resilience.Budget.bl_max_depth
    & info [ "max-depth" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock deadline in seconds for one app's analysis.  Polled every\n\
     4096 budget steps; exceeding it degrades the analysis (recorded in\n\
     the report) instead of aborting it.  SECONDS must be positive."
  in
  Arg.(
    value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let all_flag =
  let doc =
    "Analyze every corpus app behind a per-app fault barrier and print a\n\
     summary table.  A crash in one app never stops the others; exit\n\
     status 2 if any app crashed, 3 if any degraded, 0 otherwise."
  in
  Arg.(value & flag & info [ "all" ] ~doc)

let journal_arg =
  let doc =
    "Write-ahead journal for $(b,--all): one JSONL record per per-app\n\
     state transition (started, retried, crashed, finished), appended\n\
     atomically, so a killed run can be picked up with $(b,--resume)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let resume_flag =
  let doc =
    "Replay the $(b,--journal) of a previous $(b,--all) run: apps it\n\
     marks finished are restored (from the result cache when one is\n\
     configured) instead of re-analyzed; the rest run normally.  Refused\n\
     when the journal's configuration fingerprint differs from the\n\
     current flags.  The final report is byte-identical to what the\n\
     uninterrupted run would have written."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let cache_dir_arg =
  let doc =
    "Content-addressed result cache for $(b,--all): each app's report is\n\
     stored under a digest of its Limple program, the analysis\n\
     configuration and the analysis version; a later run with an\n\
     unchanged app skips the whole pipeline and restores the cached\n\
     report (counted in the $(b,cache.hits) metric)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let report_out_arg =
  let doc =
    "Write the corpus report envelope (per-app status, attempts, cache\n\
     provenance and the deterministic report JSON) to FILE after an\n\
     $(b,--all) run."
  in
  Arg.(
    value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)

let retries_arg =
  let doc =
    "Maximum attempts per app on the degrade-and-retry ladder: an app\n\
     that degraded (budget or deadline exhausted) is re-run with\n\
     escalated limits up to this many times.  1 disables the ladder\n\
     (including the crash retry); below 1 is refused."
  in
  Arg.(
    value
    & opt int Retry.default_policy.Retry.rp_max_attempts
    & info [ "retries" ] ~docv:"N" ~doc)

let default_jobs = 0
let default_gen_seed = 1

let jobs_arg =
  let doc =
    "Worker processes for $(b,--all): corpus apps are analyzed in\n\
     parallel, one per forked worker, with results reported in corpus\n\
     order (the report is byte-identical to a sequential run).  0 (the\n\
     default) uses the machine's available parallelism; 1 runs\n\
     sequentially in-process; a negative N is refused."
  in
  Arg.(value & opt int default_jobs & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let shard_conv =
  let parse s =
    let bad () =
      Error (`Msg (Printf.sprintf "invalid shard %S (expected K/N)" s))
    in
    match String.index_opt s '/' with
    | None -> bad ()
    | Some i -> (
        match
          ( int_of_string_opt (String.sub s 0 i),
            int_of_string_opt
              (String.sub s (i + 1) (String.length s - i - 1)) )
        with
        | Some k, Some n -> Ok (k, n)
        | _ -> bad ())
  in
  Arg.conv (parse, fun ppf (k, n) -> Format.fprintf ppf "%d/%d" k n)

let shard_arg =
  let doc =
    "Run only the K-th of N deterministic corpus slices under $(b,--all)\n\
     (1-based).  The partition hashes app names, so every shard computes\n\
     exactly what the unsharded run would for its apps: cache entries\n\
     carry the same keys and N shard runs can be folded back into the\n\
     unsharded report with $(b,extractocol merge).  The journal header\n\
     records the shard identity — a shard only resumes its own journal."
  in
  Arg.(
    value
    & opt (some shard_conv) None
    & info [ "shard" ] ~docv:"K/N" ~doc)

let gen_arg =
  let doc =
    "Replace the built-in corpus with COUNT synthetic apps from the\n\
     seeded parametric generator (sampling sizes, method mixes,\n\
     open/closed split and obfuscation from Table-1-like distributions).\n\
     Deterministic: the same $(b,--gen-seed) always produces the same\n\
     corpus, and the configuration fingerprint records it as\n\
     $(i,gen=SEED:COUNT) so generated-corpus journals and caches never\n\
     mix with the real corpus'."
  in
  Arg.(value & opt (some int) None & info [ "gen" ] ~docv:"COUNT" ~doc)

let gen_seed_arg =
  let doc = "Seed for the $(b,--gen) corpus generator." in
  Arg.(value & opt int default_gen_seed & info [ "gen-seed" ] ~docv:"SEED" ~doc)

let hang_timeout_arg =
  let doc =
    "Arm the hung-worker watchdog for $(b,--all --jobs N): a worker\n\
     silent (no heartbeat, event or result) for longer than this many\n\
     seconds is killed, its app retried once on a fresh worker, then\n\
     quarantined under the $(i,hung@PHASE) crash taxonomy.  SECONDS\n\
     must be positive.  Off by default."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "hang-timeout" ] ~docv:"SECONDS" ~doc)

let inject_arg =
  let doc =
    "Inject a fault at a named site (repeatable; the test hook behind\n\
     every failure contract): $(i,SITE[@N][:MODE]) arms the Nth\n\
     (default first) hit of $(i,SITE) with $(i,MODE).  Every pipeline\n\
     phase is a site: $(b,pipeline.interpretation@2:kill) kills the\n\
     process (exit 99) the 2nd time that phase starts, leaving the\n\
     journal for $(b,--resume); $(b,pipeline.pairing) starts only on\n\
     runs that record metrics or provenance.  $(b,app.crash:APP) crashes every\n\
     attempt at $(i,APP), which is quarantined (exit 2);\n\
     $(b,worker.exit:APP) and $(b,worker.spin:APP) make the worker\n\
     analyzing $(i,APP) exit or wedge.  Environment faults:\n\
     $(b,export.write:enospc), $(b,journal.append@3:torn),\n\
     $(b,store.read:bitflip), $(b,pool.frame).  Counts are per\n\
     process; forked workers inherit the plan."
  in
  Arg.(
    value & opt_all string [] & info [ "inject" ] ~docv:"SPEC" ~doc)

let arm_injections specs =
  List.iter
    (fun spec ->
      match Fault.arm_spec spec with
      | Ok () -> ()
      | Error msg -> refuse "invalid --inject %S: %s" spec msg)
    specs

let exits =
  [
    Cmd.Exit.info exit_ok ~doc:"the analysis completed cleanly.";
    Cmd.Exit.info exit_usage
      ~doc:
        "usage error: unknown app, unreadable input file, or a telemetry \
         output could not be written.";
    Cmd.Exit.info exit_crashed
      ~doc:
        "at least one app crashed behind the $(b,--all) fault barrier, was \
         retried, and crashed again — it is quarantined (the crash taxonomy \
         is printed to stderr).";
    Cmd.Exit.info exit_degraded
      ~doc:
        "the analysis completed but degraded: a budget or deadline tripped \
         (see the report's degradations), or $(b,--validate-trace) left \
         requests unmatched; for $(b,merge), artifacts (an unreadable \
         journal, a corrupt cache entry) were quarantined during the merge.";
    Cmd.Exit.info exit_partial
      ~doc:
        "$(b,merge) only: the merge is partial — expected shards or corpus \
         apps are missing (listed in the envelope's $(i,missing_shards[]) / \
         $(i,missing_apps[]) members).";
    Cmd.Exit.info exit_killed
      ~doc:
        "an injected kill fired at a pipeline phase \
         ($(b,--inject) $(i,PHASE@N:kill), test hook).";
    Cmd.Exit.info exit_interrupted
      ~doc:
        "SIGINT/SIGTERM stopped an $(b,--all) run; the journal was flushed \
         and the partial summary table printed — re-run with $(b,--resume) \
         to finish.";
  ]

(* The three modes of the analyze term. *)
type mode = Listing | Single | All

(* An argument the chosen mode ignores is refused, naming it, before any
   work starts: [(argument, modes that read it, set)] for every argument
   some mode ignores.  A flag left at its default counts as unset. *)
let refuse_ignored ~mode args =
  List.iter
    (fun (arg, read_by, set) ->
      if set && not (List.mem mode read_by) then
        match mode with
        | Single -> refuse "%s needs --all" arg
        | All -> refuse "%s has no effect with --all" arg
        | Listing -> refuse "%s has no effect with --list" arg)
    args

let analyze_term =
  Term.(
    const
      (fun log_level list name scope async intents obf obf_libs limple json
           dot validate old_trace trace_out metrics_out profile profile_out
           explain provenance_out max_steps max_depth deadline all journal
           resume cache_dir report_out retries jobs shard gen gen_seed progress
           hang_timeout inject ->
        setup_logs log_level;
        if old_trace <> None then
          refuse
            "--trace is now --validate-trace FILE (a Chrome trace is \
             --trace-out FILE)";
        let mode = if list then Listing else if all then All else Single in
        let single = [ Single ] and corpus = [ All ] in
        let run = [ Single; All ] in
        let { Resilience.Budget.bl_max_steps; bl_max_depth; _ } =
          Resilience.Budget.default_limits
        in
        refuse_ignored ~mode
          [
            ( Printf.sprintf "APP %S" (Option.value name ~default:""),
              single, name <> None );
            ("--all", corpus, all);
            ("--scope", single, scope <> None);
            ("--async-heuristic", single, not async);
            ("--intents", single, intents);
            ("--obfuscate", single, obf);
            ("--obfuscate-libraries", single, obf_libs);
            ("--limple", single, limple <> None);
            ("--json", single, json);
            ("--dot", single, dot);
            ("--validate-trace", single, validate <> None);
            ("--explain", single, explain <> None);
            ("--provenance-out", single, provenance_out <> None);
            ("--trace-out", run, trace_out <> None);
            ("--metrics-out", run, metrics_out <> None);
            ("--profile", run, profile);
            ("--profile-out", run, profile_out <> None);
            ("--max-steps", run, max_steps <> bl_max_steps);
            ("--max-depth", run, max_depth <> bl_max_depth);
            ("--deadline", run, deadline <> None);
            ("--inject", run, inject <> []);
            ("--journal", corpus, journal <> None);
            ("--resume", corpus, resume);
            ("--cache-dir", corpus, cache_dir <> None);
            ("--report-out", corpus, report_out <> None);
            ( "--retries", corpus,
              retries <> Retry.default_policy.Retry.rp_max_attempts );
            ("--jobs", corpus, jobs <> default_jobs);
            ("--shard", corpus, shard <> None);
            ("--gen", corpus, gen <> None);
            ("--gen-seed", corpus, gen_seed <> default_gen_seed);
            ("--progress", corpus, progress);
            ("--hang-timeout", corpus, hang_timeout <> None);
          ];
        (match explain with
        | Some (Some id) when id < 0 ->
            refuse "--explain=%d: TX_ID must not be negative" id
        | Some _ | None -> ());
        arm_injections inject;
        let limits = limits_of_flags max_steps max_depth deadline in
        let finish = telemetry ~trace_out ~metrics_out ~profile ~profile_out in
        try
          match mode with
          | Listing -> list_apps ()
          | All ->
              run_all limits journal resume cache_dir report_out retries jobs
                shard gen gen_seed progress hang_timeout finish
          | Single ->
              analyze_app
                (Option.value name ~default:"radio reddit")
                scope async intents obf obf_libs limple json dot validate
                explain provenance_out limits finish
        with Resilience.Barrier.Killed -> exit_killed)
    $ log_level_arg $ list_flag $ name_arg $ scope_arg $ async_flag
    $ intents_flag $ obfuscate_flag $ obf_libs_flag $ limple_arg $ json_flag
    $ dot_flag $ validate_trace_arg $ old_trace_arg $ trace_out_arg
    $ metrics_out_arg $ profile_flag $ profile_out_arg $ explain_arg
    $ provenance_out_arg $ max_steps_arg $ max_depth_arg $ deadline_arg
    $ all_flag $ journal_arg $ resume_flag $ cache_dir_arg $ report_out_arg
    $ retries_arg $ jobs_arg $ shard_arg $ gen_arg $ gen_seed_arg
    $ progress_flag $ hang_timeout_arg $ inject_arg)

(* ------------------------------------------------------------------ *)
(* stats: offline run reconstruction from artifacts                    *)
(* ------------------------------------------------------------------ *)

let run_stats log_level journals cache_dir metrics profile verify =
  setup_logs log_level;
  if verify then begin
    (* Integrity audit, not reconstruction: re-verify every journal
       record's checksum and every cache entry's content digest. *)
    let r = Stats.verify ~journals ?cache_dir () in
    Fmt.pr "%a" Stats.pp_verify r;
    if Stats.verify_clean r then exit_ok else exit_degraded
  end
  else
    match Stats.of_artifacts ~journals ?cache_dir ?metrics ?profile () with
    | Error msg ->
        Fmt.epr "%s@." msg;
        exit_usage
    | Ok t ->
        Fmt.pr "%a" Stats.pp t;
        exit_ok

let stats_cmd =
  let doc =
    "reconstruct an $(b,--all) run's report from its artifacts alone"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads the write-ahead journal a previous (possibly killed, \
         possibly still running) $(b,--all) run left behind and prints \
         the run's story without re-running anything: the summary \
         footer, per-app wall times and the slowest apps, the \
         retry-ladder and crash taxonomies, and the cache hit rate.  \
         With $(b,--metrics), per-phase latency percentiles \
         (p50/p95/p99) from the metrics snapshot are appended; with \
         $(b,--profile), the view the run's $(b,--profile) printed, \
         from the $(b,--profile-out) artifact.  The journal is opened \
         read-only and never truncated.";
    ]
  in
  let journal =
    let doc =
      "The $(b,--journal) file of the run to reconstruct.  Repeatable:\n\
       several journals (a $(b,--shard) set) pool into one fleet-wide\n\
       view — shard suffixes are stripped from the configuration\n\
       fingerprints (which must share a base) and events merge in stamp\n\
       order."
    in
    Arg.(
      non_empty & opt_all string [] & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let cache_dir =
    let doc =
      "The run's $(b,--cache-dir); adds the number of results on disk."
    in
    Arg.(
      value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let metrics =
    let doc =
      "The run's $(b,--metrics-out) snapshot; adds the per-phase\n\
       p50/p95/p99 latency table."
    in
    Arg.(
      value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let profile =
    let doc =
      "The run's $(b,--profile-out) artifact; adds, last, the view the\n\
       run's $(b,--profile) printed: phases, the 20 hottest methods and\n\
       one waste row per app."
    in
    Arg.(
      value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)
  in
  let verify =
    let doc =
      "Audit artifact integrity instead of reconstructing the run:\n\
       re-verify every journal record's checksum and (with\n\
       $(b,--cache-dir)) every cache entry's content digest.  Exits 0\n\
       when everything checks out, 3 when corruption was found."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  Cmd.v
    (Cmd.info "stats" ~doc ~man ~exits)
    Term.(
      const run_stats $ log_level_arg $ journal $ cache_dir $ metrics
      $ profile $ verify)

(* ------------------------------------------------------------------ *)
(* merge: union sharded --all artifacts offline                        *)
(* ------------------------------------------------------------------ *)

let run_merge log_level journals cache_dirs metrics_ins expect_shards
    report_out journal_out cache_out metrics_out =
  setup_logs log_level;
  if metrics_out <> None && metrics_ins = [] then
    refuse "--metrics-out needs at least one --metrics snapshot to merge";
  match Merge.merge ~journals ~cache_dirs ?expect_shards () with
  | Error msg ->
      Fmt.epr "%s@." msg;
      exit_usage
  | Ok t ->
      Option.iter
        (try_write (fun path ->
             Telemetry.Export.write_file path (Merge.report_json t)))
        report_out;
      Option.iter
        (try_write (fun path ->
             Telemetry.Export.write_file path (Merge.journal_contents t)))
        journal_out;
      Option.iter
        (try_write (fun dir ->
             let store = Store.open_ ~dir () in
             List.iter
               (fun (key, data) ->
                 match Store.key_of_string key with
                 | Some k -> Store.store store k data
                 | None -> ())
               t.Merge.mg_cache))
        cache_out;
      Option.iter
        (try_write (fun path ->
             match Merge.merge_metrics metrics_ins with
             | Ok doc -> Telemetry.Export.write_file path doc
             | Error msg ->
                 Fmt.epr "%s@." msg;
                 exit exit_usage))
        metrics_out;
      let results = t.Merge.mg_run.Runner.rn_results in
      let count st =
        List.length
          (List.filter (fun a -> a.Runner.ar_status = st) results)
      in
      Fmt.pr "merged %d journal%s: %d/%d apps (%d ok, %d degraded, %d \
              quarantined)@."
        (List.length journals)
        (if List.length journals = 1 then "" else "s")
        (List.length results) t.Merge.mg_expected (count Runner.Ok)
        (count Runner.Degraded)
        (count Runner.Quarantined);
      if t.Merge.mg_missing_shards <> [] then
        Fmt.pr "missing shards: %s@."
          (String.concat ", "
             (List.map string_of_int t.Merge.mg_missing_shards));
      if t.Merge.mg_missing_apps <> [] then
        Fmt.pr "missing apps: %s@."
          (String.concat ", " t.Merge.mg_missing_apps);
      List.iter
        (fun (d : Merge.degradation) ->
          Fmt.epr "merge degradation: %s%s (%s)@."
            (if d.Merge.md_app = "" then "" else d.Merge.md_app ^ ": ")
            d.Merge.md_reason d.Merge.md_detail)
        t.Merge.mg_degradations;
      Merge.exit_code t

let merge_cmd =
  let doc = "union sharded $(b,--all) artifacts into one corpus report" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Folds the journals (and optionally cache directories and metrics \
         snapshots) that N $(b,--shard K/N) runs left behind into the \
         artifacts one unsharded run would have produced: the \
         $(b,--report-out) envelope is byte-identical to $(b,--all --jobs \
         1)'s when every shard is present and healthy.  The merge is \
         idempotent — overlapping shards, duplicated work and re-merging \
         its own outputs resolve newest-finished-wins by journal stamp — \
         and corruption never aborts it: unreadable journals and \
         truncated cache entries are quarantined into the envelope's \
         $(i,merge_degradations[]) (exit 3), while absent shards and \
         unaccounted apps are listed in $(i,missing_shards[]) / \
         $(i,missing_apps[]) (exit 4).  Inputs are opened read-only, so \
         merging a still-running shard's artifacts is safe.";
      `P
        "The journals say what the shards were run under: their \
         headers' configuration fingerprint, shard suffix aside, is the \
         merged configuration, and its $(i,gen=SEED:COUNT) tag names the \
         corpus (without one, the built-in corpus $(b,--all) runs).  A \
         set whose headers name two configurations is refused, naming \
         both, and so is a set in which no journal has a readable header, \
         since nothing then names the configuration or the corpus (exit \
         1).";
    ]
  in
  let journals =
    let doc =
      "A shard's $(b,--journal) file.  Repeatable, one per shard; later \
       files win stamp ties."
    in
    Arg.(
      non_empty & opt_all string [] & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let cache_dirs =
    let doc =
      "A shard's $(b,--cache-dir).  Repeatable; searched in order for \
       each app's report, skipping corrupt copies."
    in
    Arg.(value & opt_all string [] & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let metrics_ins =
    let doc =
      "A shard's $(b,--metrics-out) snapshot.  Repeatable; unioned into \
       $(b,--metrics-out) (counters add, gauges take the max, histogram \
       buckets add slot-wise)."
    in
    Arg.(value & opt_all string [] & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let expect_shards =
    let doc =
      "Require journals from all N shards; absent ones are reported as \
       $(i,missing_shards[]) (exit 4).  Default: the largest N the \
       journals' own shard identities declare.  N must be positive."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "expect-shards" ] ~docv:"N" ~doc)
  in
  let report_out =
    let doc =
      "Write the merged corpus report envelope to FILE (atomically)."
    in
    Arg.(
      value & opt (some string) None & info [ "report-out" ] ~docv:"FILE" ~doc)
  in
  let journal_out =
    let doc =
      "Write the merged journal to FILE: readable by $(b,stats), \
       $(b,--resume) and a further $(b,merge) exactly like a \
       runner-written journal."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "journal-out" ] ~docv:"FILE" ~doc)
  in
  let cache_out =
    let doc =
      "Copy the unioned cache entries into DIR (created if needed); keys \
       are unchanged, so a $(b,--resume) against the merged journal can \
       restore every report from it."
    in
    Arg.(
      value & opt (some string) None & info [ "cache-out" ] ~docv:"DIR" ~doc)
  in
  let metrics_out =
    let doc = "Write the unioned metrics snapshot to FILE." in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "merge" ~doc ~man ~exits)
    Term.(
      const run_merge $ log_level_arg $ journals $ cache_dirs $ metrics_ins
      $ expect_shards $ report_out $ journal_out $ cache_out $ metrics_out)

let doc = "reconstruct HTTP transactions from an Android app binary"

let cmd =
  let info = Cmd.info "extractocol" ~version:"1.0" ~doc ~exits in
  Cmd.group ~default:analyze_term info [ stats_cmd; merge_cmd ]

(* A positional that is not a subcommand name is a corpus app:
   [extractocol kayak --profile].  Cmd.group would reject it as an
   unknown command, so route those invocations straight to the analyze
   term; everything else (no args, options only, [stats ...]) goes
   through the group so subcommands and group help keep working. *)
let analyze_cmd =
  Cmd.v (Cmd.info "extractocol" ~version:"1.0" ~doc ~exits) analyze_term

let () =
  let positional_app =
    Array.length Sys.argv > 1
    && String.length Sys.argv.(1) > 0
    && Sys.argv.(1).[0] <> '-'
    && Sys.argv.(1) <> "stats"
    && Sys.argv.(1) <> "merge"
  in
  exit (Cmd.eval' (if positional_app then analyze_cmd else cmd))
