(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Tables 1-6, Figures 1/3/5/6/7, the §5.1 timing comparison)
   and runs the ablation benches called out in DESIGN.md.  Run with no
   argument for everything, or with one of:
     table1 fig6 fig7 table2 table3 table4 table5 table6 fig3 fig5
     timing micro sweep ablate-aug ablate-async ablate-pairing
     ablate-worklist ablate-deobf
   or with --baseline FILE [--threshold X] [--json OUT] to diff a fresh
   timing measurement against a committed BENCH_pipeline.json. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Pp = Extr_ir.Pp
module Api = Extr_semantics.Api
module Apk = Extr_apk.Apk
module Http = Extr_httpmodel.Http
module Strsig = Extr_siglang.Strsig
module Regex = Extr_siglang.Regex
module Msgsig = Extr_siglang.Msgsig
module Report = Extr_extractocol.Report
module Pipeline = Extr_extractocol.Pipeline
module Interp = Extr_extractocol.Interp
module Pairing = Extr_extractocol.Pairing
module Slicer = Extr_slicing.Slicer
module Callgraph = Extr_cfg.Callgraph
module Callbacks = Extr_semantics.Callbacks
module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Case_studies = Extr_corpus.Case_studies
module Fuzz = Extr_fuzz.Fuzz
module Eval = Extr_eval.Eval
module Tables = Extr_eval.Tables
module Json = Extr_httpmodel.Json
module Span = Extr_telemetry.Span
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Store = Extr_store.Store
module Journal = Extr_resilience.Journal

let fmt = Fmt.stdout

(* ------------------------------------------------------------------ *)
(* Cached corpus evaluation                                           *)
(* ------------------------------------------------------------------ *)

let table1_evals : Eval.app_eval list Lazy.t =
  lazy
    (let entries = Corpus.table1 () in
     List.map
       (fun e ->
         Fmt.epr "  evaluating %s...@." e.Corpus.c_app.Spec.a_name;
         Eval.evaluate e)
       entries)

let case_analysis name : Pipeline.analysis =
  let entries = Corpus.case_studies () in
  match Corpus.find entries name with
  | None -> Fmt.failwith "case-study app %s not found" name
  | Some e ->
      let options =
        match name with
        | "Kayak (case study)" ->
            (* §5.3 scopes the analysis to com.kayak classes. *)
            { Pipeline.default_options with Pipeline.op_scope = Some "com.kayak" }
        | _ -> Pipeline.default_options
      in
      Pipeline.analyze ~options (Lazy.force e.Corpus.c_apk)

(* ------------------------------------------------------------------ *)
(* Aggregate tables                                                   *)
(* ------------------------------------------------------------------ *)

let run_table1 () = Tables.render_table1 fmt (Lazy.force table1_evals)
let run_fig6 () = Tables.render_fig6 fmt (Lazy.force table1_evals)
let run_fig7 () = Tables.render_fig7 fmt (Lazy.force table1_evals)
let run_table2 () = Tables.render_table2 fmt (Lazy.force table1_evals)

(* ------------------------------------------------------------------ *)
(* Case studies                                                       *)
(* ------------------------------------------------------------------ *)

let run_table3 () =
  let analysis = case_analysis "radio reddit" in
  Tables.render_transactions fmt
    "Table 3 — radio reddit reconstructed transactions and dependency graph"
    analysis.Pipeline.an_report

let run_table4 () =
  let analysis = case_analysis "TED (case study)" in
  Tables.render_transactions fmt
    "Table 4 — TED transactions (static vs dynamically-derived URIs, DB-mediated deps)"
    analysis.Pipeline.an_report;
  (* Figure 1: the prefetchable ad chain — the talk-ad response contains
     the URL of the next request, whose response feeds the media player. *)
  let report = analysis.Pipeline.an_report in
  let chain =
    List.exists
      (fun tr ->
        List.exists
          (fun (d : Extr_extractocol.Txn.dep) ->
            d.Extr_extractocol.Txn.dep_to_field = "uri")
          tr.Report.tr_deps
        && List.mem Msgsig.To_media_player tr.Report.tr_response.Msgsig.ps_consumers)
      report.Report.rp_transactions
  in
  Fmt.pf fmt
    "Figure 1 — prefetchable chain (response URL -> next request -> media player): %b@\n@\n"
    chain

let run_table5 () =
  let analysis = case_analysis "Kayak (case study)" in
  Tables.render_table5 fmt analysis.Pipeline.an_report;
  Fmt.pf fmt "  total transactions in scope: %d (paper: 46)@\n@\n"
    (List.length analysis.Pipeline.an_report.Report.rp_transactions)

let run_table6 () =
  let analysis = case_analysis "Kayak (case study)" in
  Tables.render_table6 fmt analysis.Pipeline.an_report;
  (* §5.3 replay: generate requests from the extracted signatures against
     the simulated kayak.com and verify fare retrieval (the paper's
     73-line Python script). *)
  let app = Case_studies.kayak in
  let ok = Extr_eval.Replay.flight_search app analysis.Pipeline.an_report in
  Fmt.pf fmt
    "  replay: authajax -> flight/start -> flight/poll retrieved fares: %b@\n@\n" ok

let run_fig3 () =
  let analysis = case_analysis "Diode" in
  let report = analysis.Pipeline.an_report in
  Fmt.pf fmt "Figure 3 — Diode network-aware slicing@\n";
  Fmt.pf fmt "  slice fraction: %.1f%% of %d statements (paper: 6.3%%)@\n"
    (100.0 *. report.Report.rp_slice_fraction)
    report.Report.rp_total_stmts;
  (* The listing request combines nine URI patterns. *)
  let listing =
    List.find_opt
      (fun tr ->
        let r = Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri in
        String.length r > 80 && tr.Report.tr_request.Msgsig.rs_meth = Http.GET)
      report.Report.rp_transactions
  in
  (match listing with
  | Some tr ->
      let regex = Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri in
      let samples =
        [
          "http://www.reddit.com/search/.json?q=ocaml&sort=top";
          "http://www.reddit.com/r/progs/hot.json?&count=25&after=t3_x1&";
          "http://www.reddit.com/frontpage.json?hot&count=25&before=t3_x2&";
        ]
      in
      Fmt.pf fmt "  listing signature (9 URI patterns): %d chars@\n"
        (String.length regex);
      List.iter
        (fun s ->
          Fmt.pf fmt "    matches %-62s %b@\n" s
            (Regex.string_matches ~pattern:regex s))
        samples
  | None -> Fmt.pf fmt "  listing transaction not found!@\n");
  Fmt.pf fmt "@\n"

let run_fig5 () =
  Fmt.pf fmt
    "Figure 5 — request/response pairing under a shared demarcation point@\n";
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "SharedDP") in
  let apk = Lazy.force e.Corpus.c_apk in
  let analysis = Pipeline.analyze ~options:Pipeline.default_options apk in
  Fmt.pf fmt "  disjoint-context analysis: %d transactions (expected 2)@\n"
    (List.length analysis.Pipeline.an_report.Report.rp_transactions);
  List.iter
    (fun tr -> Fmt.pf fmt "    %a@\n" Msgsig.pp_request_sig tr.Report.tr_request)
    analysis.Pipeline.an_report.Report.rp_transactions;
  (* Slice-level pairing: naive = cross product, disjoint = one pair per
     divergence head. *)
  let naive = Pairing.pair_naive analysis.Pipeline.an_slices in
  Fmt.pf fmt "  naive information-flow pairing candidates: %d (cross-paired)@\n"
    (List.length naive);
  let pairs = Lazy.force analysis.Pipeline.an_pairs in
  Fmt.pf fmt "  disjoint-segment pairs: %d@\n" (List.length pairs);
  List.iter
    (fun (p : Pairing.pair) ->
      Fmt.pf fmt
        "    head %s: request segment %d stmts, response segment %d stmts@\n"
        (Ir.Method_id.to_string p.Pairing.pr_head)
        (Ir.Stmt_set.cardinal p.Pairing.pr_request_segment)
        (Ir.Stmt_set.cardinal p.Pairing.pr_response_segment))
    pairs;
  Fmt.pf fmt "@\n"

(* ------------------------------------------------------------------ *)
(* Timing (§5.1)                                                      *)
(* ------------------------------------------------------------------ *)

(* Measure every case-study app once with the phase spans and the shared
   pipeline.phase_us histogram enabled.  Returns the per-app JSON rows
   and the fleet-level per-phase percentile object — shared between the
   timing dump and the --baseline regression diff so both sides of a
   comparison are produced by the same code path. *)
let measure_phase_timings () =
  let tracer = Span.default in
  let entries = Corpus.case_studies () in
  (* One untimed warm-up pass per app: the measured loop then sees the
     same warmed allocator/caches whether it runs inside the full
     `timing` bench or cold at the start of a --baseline diff. *)
  List.iter
    (fun (e : Corpus.entry) ->
      ignore
        (Pipeline.analyze ~options:Pipeline.default_options
           (Lazy.force e.Corpus.c_apk)))
    entries;
  (* Fleet-level percentiles ride on the pipeline.phase_us histogram the
     phase wrapper records; collect it across every app in this loop. *)
  let metrics = Extr_telemetry.Metrics.default in
  let metrics_were = Extr_telemetry.Metrics.is_enabled metrics in
  Extr_telemetry.Metrics.reset metrics;
  Extr_telemetry.Metrics.set_enabled metrics true;
  let apps =
    List.map
      (fun (e : Corpus.entry) ->
        let name = e.Corpus.c_app.Spec.a_name in
        let apk = Lazy.force e.Corpus.c_apk in
        let options =
          match name with
          | "Kayak (case study)" ->
              { Pipeline.default_options with Pipeline.op_scope = Some "com.kayak" }
          | _ -> Pipeline.default_options
        in
        (* Min of three instrumented passes per app: the phases now run
           in single-digit milliseconds, where a single-shot sample can
           jitter past any sane regression threshold — the min is the
           stable floor estimate, on both sides of a --baseline diff.
           The shared histogram keeps accumulating across all passes. *)
        let total = ref infinity in
        let phases =
          Hashtbl.create (List.length Pipeline.phase_names)
        in
        List.iter (fun p -> Hashtbl.replace phases p infinity)
          Pipeline.phase_names;
        for _ = 1 to 3 do
          let was = Span.is_enabled tracer in
          Span.reset tracer;
          Span.set_enabled tracer true;
          ignore (Pipeline.analyze ~options apk);
          Span.set_enabled tracer was;
          let span_s sname =
            match Span.find tracer sname with
            | Some sp -> Span.duration_s sp
            | None -> 0.
          in
          total := min !total (span_s "pipeline.analyze");
          List.iter
            (fun p ->
              Hashtbl.replace phases p
                (min (Hashtbl.find phases p) (span_s ("pipeline." ^ p))))
            Pipeline.phase_names
        done;
        Json.Obj
          [
            ("app", Json.Str name);
            ("total_s", Json.Float !total);
            ( "phases",
              Json.Obj
                (List.map
                   (fun p -> (p, Json.Float (Hashtbl.find phases p)))
                   Pipeline.phase_names) );
          ])
      entries
  in
  (* Per-phase latency distribution over all apps just analyzed:
     p50/p95/p99 from the shared histogram, the same estimate the
     metrics exporter annotates snapshots with. *)
  let phase_percentiles =
    let module M = Extr_telemetry.Metrics in
    let rows =
      M.snapshot metrics
      |> List.filter_map (fun (s : M.sample) ->
             if s.M.sa_name <> "pipeline.phase_us" then None
             else
               let phase =
                 Option.value ~default:"?" (List.assoc_opt "phase" s.M.sa_labels)
               in
               let pq q =
                 match M.percentile s q with
                 | Some v -> Json.Float v
                 | None -> Json.Null
               in
               Some
                 ( phase,
                   Json.Obj
                     [
                       ("count", Json.Int s.M.sa_count);
                       ("p50_us", pq 50.0);
                       ("p95_us", pq 95.0);
                       ("p99_us", pq 99.0);
                     ] ))
    in
    Json.Obj rows
  in
  Extr_telemetry.Metrics.set_enabled metrics metrics_were;
  (apps, phase_percentiles)

(* Machine-readable bench output: the per-app per-phase wall-clock rows
   and the fleet phase percentiles — exactly what the --baseline gate
   reads — dumped to a JSON file CI can diff across commits. *)
let write_phase_timings path =
  let apps, phase_percentiles = measure_phase_timings () in
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "pipeline");
        ("apps", Json.List apps);
        ("phase_percentiles", phase_percentiles);
      ]
  in
  Extr_telemetry.Export.write_file path (Json.to_string doc ^ "\n");
  Fmt.pf fmt "  per-phase timings for %d apps written to %s@\n@\n"
    (List.length apps) path

let run_timing ?(json = "BENCH_pipeline.json") () =
  Fmt.pf fmt "Timing — analysis wall-clock per app class (§5.1)@\n";
  let evals = Lazy.force table1_evals in
  let opens = List.filter (fun ae -> not ae.Eval.ae_app.Spec.a_closed) evals in
  let closed = List.filter (fun ae -> ae.Eval.ae_app.Spec.a_closed) evals in
  let avg group =
    match group with
    | [] -> 0.
    | _ ->
        List.fold_left
          (fun acc ae -> acc +. ae.Eval.ae_report.Report.rp_elapsed_s)
          0. group
        /. float_of_int (List.length group)
  in
  Fmt.pf fmt "  open-source apps: avg %.3fs (paper: ~4 min on real APKs)@\n"
    (avg opens);
  Fmt.pf fmt "  closed-source apps: avg %.3fs (paper: 11 min - 3 h)@\n" (avg closed);
  (* TED: static analysis vs automatic UI fuzzing cost (paper: 132.5 min
     vs 10.3 min — fuzzing is cheaper but finds far less). *)
  let entries = Corpus.case_studies () in
  let ted = Option.get (Corpus.find entries "TED (case study)") in
  let apk = Lazy.force ted.Corpus.c_apk in
  let t0 = Unix.gettimeofday () in
  let analysis = Pipeline.analyze ~options:Pipeline.default_options apk in
  let static_t = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let trace = Fuzz.run ted.Corpus.c_app apk ~policy:`Auto in
  let fuzz_t = Unix.gettimeofday () -. t1 in
  Fmt.pf fmt
    "  TED: extractocol %.3fs (%d txs) vs automatic fuzzing %.4fs (%d requests) — static costs more, finds more@\n@\n"
    static_t
    (List.length analysis.Pipeline.an_report.Report.rp_transactions)
    fuzz_t
    (List.length trace.Http.tr_entries);
  write_phase_timings json

(* ------------------------------------------------------------------ *)
(* Regression harness: bench --baseline BENCH_pipeline.json           *)
(* ------------------------------------------------------------------ *)

(* Diff a fresh timing measurement against a committed baseline
   (BENCH_pipeline.json).  A row regresses when current/baseline exceeds
   the threshold AND the absolute delta clears a noise floor (5 ms) —
   most phases here run sub-millisecond, where pure ratios would flag
   scheduler jitter.  Exit 4 on any regression; the full comparison
   table is written into the output JSON alongside the fresh rows. *)
let exit_regressed = 4

let run_baseline ~baseline ?(threshold = 1.5) ?(json = "BENCH_compare.json") ()
    =
  let base =
    match In_channel.with_open_text baseline In_channel.input_all with
    | exception Sys_error msg -> Fmt.failwith "cannot read baseline: %s" msg
    | src -> (
        match Json.of_string_opt src with
        | Some j -> j
        | None -> Fmt.failwith "baseline %s is not valid JSON" baseline)
  in
  Fmt.pf fmt "Bench regression check against %s (threshold %.2fx)@\n" baseline
    threshold;
  let apps, percentiles = measure_phase_timings () in
  let num = function
    | Json.Float f -> Some f
    | Json.Int n -> Some (float_of_int n)
    | _ -> None
  in
  let rows = ref [] in
  let regressions = ref 0 in
  let check ~scope ~metric ~floor b c =
    let ratio =
      if b > 0. then c /. b else if c > 0. then Float.infinity else 1.0
    in
    let regressed = ratio > threshold && c -. b > floor in
    if regressed then incr regressions;
    rows := (scope, metric, b, c, ratio, regressed) :: !rows
  in
  let floor_s = 0.005 in
  let base_apps =
    match Json.member "apps" base with Some (Json.List l) -> l | _ -> []
  in
  List.iter
    (fun cur_app ->
      let name =
        match Json.member "app" cur_app with Some (Json.Str s) -> s | _ -> "?"
      in
      match
        List.find_opt
          (fun b -> Json.member "app" b = Some (Json.Str name))
          base_apps
      with
      | None -> Fmt.pf fmt "  %-28s not in baseline (skipped)@\n" name
      | Some b ->
          (match
             ( Option.bind (Json.member "total_s" b) num,
               Option.bind (Json.member "total_s" cur_app) num )
           with
          | Some bb, Some cc ->
              check ~scope:name ~metric:"total_s" ~floor:floor_s bb cc
          | _ -> ());
          (match (Json.member "phases" b, Json.member "phases" cur_app) with
          | Some (Json.Obj bp), Some (Json.Obj cp) ->
              List.iter
                (fun (ph, cv) ->
                  match Option.bind (List.assoc_opt ph bp) num with
                  | Some bb -> (
                      match num cv with
                      | Some cc ->
                          check ~scope:name ~metric:("phase." ^ ph)
                            ~floor:floor_s bb cc
                      | None -> ())
                  | None -> ())
                cp
          | _ -> ()))
    apps;
  (* Fleet-level p50 (µs) across all apps.  p95/p99 are skipped — with a
     handful of histogram observations per phase per app they are the
     worst single sample, i.e. pure tail noise.  The floor must exceed
     one 1-2-5 bucket width at the phases' current single-digit-
     millisecond scale: a sample landing one bucket up moves the
     interpolated percentile ~2x, which a pure ratio threshold would
     misread as a regression. *)
  let floor_us = 25_000.0 in
  (match (Json.member "phase_percentiles" base, percentiles) with
  | Some (Json.Obj bp), Json.Obj cp ->
      List.iter
        (fun (ph, cv) ->
          match List.assoc_opt ph bp with
          | None -> ()
          | Some bv ->
              List.iter
                (fun metric ->
                  match
                    ( Option.bind (Json.member metric bv) num,
                      Option.bind (Json.member metric cv) num )
                  with
                  | Some bb, Some cc ->
                      check ~scope:("fleet." ^ ph) ~metric ~floor:floor_us bb
                        cc
                  | _ -> ())
                [ "p50_us" ])
        cp
  | _ -> ());
  let rows = List.rev !rows in
  Fmt.pf fmt "  %-28s %-24s %12s %12s %8s@\n" "scope" "metric" "baseline"
    "current" "ratio";
  List.iter
    (fun (scope, metric, b, c, ratio, regressed) ->
      Fmt.pf fmt "  %-28s %-24s %12.6f %12.6f %7.2fx%s@\n" scope metric b c
        ratio
        (if regressed then "  REGRESSED" else ""))
    rows;
  let doc =
    Json.Obj
      [
        ("bench", Json.Str "pipeline");
        ("apps", Json.List apps);
        ("phase_percentiles", percentiles);
        ( "comparison",
          Json.Obj
            [
              ("baseline", Json.Str baseline);
              ("threshold", Json.Float threshold);
              ("regressions", Json.Int !regressions);
              ( "rows",
                Json.List
                  (List.map
                     (fun (scope, metric, b, c, ratio, regressed) ->
                       Json.Obj
                         [
                           ("scope", Json.Str scope);
                           ("metric", Json.Str metric);
                           ("baseline", Json.Float b);
                           ("current", Json.Float c);
                           ("ratio", Json.Float ratio);
                           ("regressed", Json.Bool regressed);
                         ])
                     rows) );
            ] );
      ]
  in
  Extr_telemetry.Export.write_file json (Json.to_string doc ^ "\n");
  Fmt.pf fmt "  comparison written to %s@\n" json;
  if !regressions > 0 then begin
    Fmt.pf fmt "  %d regression(s) past %.2fx@\n" !regressions threshold;
    exit exit_regressed
  end
  else Fmt.pf fmt "  no regressions past %.2fx@\n" threshold

(* ------------------------------------------------------------------ *)
(* Bechamel microbenches                                              *)
(* ------------------------------------------------------------------ *)

let bench_counter = Metrics.counter "bench.noop"

(* Disabled-profiler fast path: the cursor against its own (disabled)
   accumulator, so the bench never flips the default instance. *)
let bench_cursor =
  Profile.cursor
    ~profile:(Profile.create ())
    ~phase:"bench" ~render:Ir.Method_id.to_string ()

let bench_mid = { Ir.id_cls = "bench"; id_name = "noop" }

let run_micro () =
  let open Bechamel in
  let open Toolkit in
  Fmt.pf fmt "Microbenchmarks (Bechamel, monotonic clock)@\n";
  let diode_entry = Option.get (Corpus.find (Corpus.case_studies ()) "Diode") in
  let diode_apk = Lazy.force diode_entry.Corpus.c_apk in
  let rr_entry =
    Option.get (Corpus.find (Corpus.case_studies ()) "radio reddit")
  in
  let rr_apk = Lazy.force rr_entry.Corpus.c_apk in
  let gen_apk =
    Lazy.force (List.hd (Corpus.generated ~seed:1 ~count:1)).Corpus.c_apk
  in
  (* What a corpus run caches for that app, and the journal record that
     finishes it. *)
  let gen_report =
    (Pipeline.analyze ~options:Pipeline.default_options gen_apk)
      .Pipeline.an_report
  in
  let gen_entry = Json.to_string (Report.to_json ~deterministic:true gen_report) in
  let gen_finished =
    Journal.Finished
      {
        ev_app = "gen-1";
        ev_key = Store.key_to_string (Store.key ~config:"bench" gen_apk);
        ev_status = "ok";
        ev_cached = false;
        ev_attempts = 1;
        ev_txs = List.length gen_report.Report.rp_transactions;
      }
  in
  let regex =
    Regex.of_pattern "http://www\\.reddit\\.com/search/\\.json\\?q=(.*)&sort=(.*)"
  in
  (* Worst case for the statement-level call-site lookup: the last
     statement of the largest Diode method — the linear scan this bench
     guarded the replacement of walked the whole site list to reach it. *)
  let diode_cg, diode_last_sid =
    let prog =
      Prog.of_program (Pipeline.with_library_classes diode_apk.Apk.program)
    in
    let cg =
      Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
        ~callback_triggers:Callbacks.trigger_names prog
    in
    let largest =
      match Prog.app_methods prog with
      | [] -> Fmt.failwith "Diode has no app methods"
      | m :: ms ->
          List.fold_left
            (fun best (m : Ir.meth) ->
              if Array.length m.Ir.m_body > Array.length best.Ir.m_body then m
              else best)
            m ms
    in
    ( cg,
      {
        Ir.sid_meth = Ir.method_id_of_meth largest;
        sid_idx = Array.length largest.Ir.m_body - 1;
      } )
  in
  let tests =
    [
      (* Table 1 / §5.1: whole-pipeline analysis latency. *)
      Test.make ~name:"pipeline:radio-reddit"
        (Staged.stage (fun () ->
             ignore (Pipeline.analyze ~options:Pipeline.default_options rr_apk)));
      (* Artifact integrity, priced against one app's analysis above:
         sealing and verifying the app's cache entry, and encoding and
         sealing the journal record that finishes it. *)
      Test.make ~name:"store:seal-decode"
        (Staged.stage (fun () -> ignore (Store.decode (Store.seal gen_entry))));
      Test.make ~name:"journal:line-of-event"
        (Staged.stage (fun () ->
             ignore (Journal.line_of_event ~stamp:0. gen_finished)));
      (* Figure 3: slicing cost on the Diode-scale app. *)
      Test.make ~name:"slicing:diode"
        (Staged.stage (fun () ->
             let program = Pipeline.with_library_classes diode_apk.Apk.program in
             let prog = Prog.of_program program in
             let cg =
               Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
                 ~callback_triggers:Callbacks.trigger_names prog
             in
             ignore (Slicer.run prog cg)));
      (* Demand-driven lookups: one statement's call-site records come
         from an O(1) per-method array slot (previously a linear walk of
         the method's whole site list per provenance/pairing query). *)
      Test.make ~name:"callgraph:callsite-at"
        (Staged.stage (fun () ->
             ignore (Callgraph.callsite_at diode_cg diode_last_sid)));
      (* The per-app cost a warm corpus run pays before its cache hit:
         the result-cache key (header plus printed program, digested)
         and the Limple printer alone on the Diode-scale program. *)
      Test.make ~name:"store:key"
        (Staged.stage (fun () -> ignore (Store.key ~config:"bench" gen_apk)));
      Test.make ~name:"ir:print"
        (Staged.stage (fun () ->
             ignore (Pp.program_to_string diode_apk.Apk.program)));
      (* §5.1 signature validity: regex matching over traces. *)
      Test.make ~name:"regex:uri-match"
        (Staged.stage (fun () ->
             ignore
               (Regex.matches regex
                  "http://www.reddit.com/search/.json?q=ocaml&sort=top")));
      (* Table 2: byte accounting. *)
      Test.make ~name:"strsig:byte-account"
        (Staged.stage (fun () ->
             ignore
               (Strsig.byte_counts
                  (Strsig.concat
                     [
                       Strsig.lit "id="; Strsig.unknown; Strsig.lit "&uh=";
                       Strsig.unknown;
                     ])
                  "id=t3_9x&uh=banana")));
      (* Dynamic baseline cost. *)
      Test.make ~name:"fuzz:radio-reddit"
        (Staged.stage (fun () ->
             ignore (Fuzz.run rr_entry.Corpus.c_app rr_apk ~policy:`Full)));
      (* Telemetry overhead: the disabled fast paths must be a flag
         check, and a fully-instrumented pipeline run bounds the
         enabled cost against pipeline:radio-reddit above. *)
      Test.make ~name:"telemetry:incr-disabled"
        (Staged.stage (fun () -> Metrics.incr bench_counter));
      Test.make ~name:"telemetry:span-disabled"
        (Staged.stage (fun () -> Span.with_span "bench.noop" (fun () -> ())));
      Test.make ~name:"pipeline:radio-reddit-telemetry"
        (Staged.stage (fun () ->
             Span.reset Span.default;
             Span.set_enabled Span.default true;
             Metrics.set_enabled Metrics.default true;
             ignore (Pipeline.analyze ~options:Pipeline.default_options rr_apk);
             Span.set_enabled Span.default false;
             Metrics.set_enabled Metrics.default false));
      (* Method-level profiler overhead: the disabled cursor visit is
         one flag check, and a profiler-enabled pipeline run bounds the
         enabled cost (clock reads only on method switches) against
         pipeline:radio-reddit above — the <5% budget. *)
      Test.make ~name:"telemetry:profile-visit-disabled"
        (Staged.stage (fun () -> Profile.visit bench_cursor bench_mid));
      Test.make ~name:"pipeline:radio-reddit-profiled"
        (Staged.stage (fun () ->
             Profile.reset Profile.default;
             Profile.set_enabled Profile.default true;
             ignore (Pipeline.analyze ~options:Pipeline.default_options rr_apk);
             Profile.set_enabled Profile.default false));
      (* Provenance overhead: the disabled recorder is one flag check at
         every instrumentation site (the default configuration), and a
         provenance-enabled pipeline run bounds the evidence-recording
         cost against pipeline:radio-reddit above. *)
      Test.make ~name:"provenance:record-disabled"
        (Staged.stage (fun () ->
             Provenance.record_rule Provenance.default
               ~stmt:
                 {
                   Ir.sid_meth = { Ir.id_cls = "bench"; id_name = "noop" };
                   sid_idx = 0;
                 }
               "bench.noop"));
      Test.make ~name:"pipeline:radio-reddit-provenance"
        (Staged.stage (fun () ->
             Provenance.reset Provenance.default;
             Provenance.set_enabled Provenance.default true;
             ignore (Pipeline.analyze ~options:Pipeline.default_options rr_apk);
             Provenance.set_enabled Provenance.default false));
    ]
  in
  let grouped = Test.make_grouped ~name:"extractocol" ~fmt:"%s %s" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~stabilize:false () in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Fmt.pf fmt "  %-34s %14.1f ns/run@\n" name est
      | Some _ | None -> Fmt.pf fmt "  %-34s (no estimate)@\n" name)
    results;
  Fmt.pf fmt "@\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let run_ablate_aug () =
  Fmt.pf fmt "Ablation — object-aware slice augmentation (§3.1)@\n";
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "TED (case study)") in
  let apk = Lazy.force e.Corpus.c_apk in
  let program = Pipeline.with_library_classes apk.Apk.program in
  let prog = Prog.of_program program in
  let cg =
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  let sizes options =
    let slices = Slicer.run ~options prog cg in
    List.fold_left
      (fun acc (sl : Slicer.slice) -> acc + Ir.Stmt_set.cardinal sl.Slicer.sl_stmts)
      0 slices.Slicer.r_response
  in
  let on = sizes { Slicer.default_options with Slicer.opt_augmentation = true } in
  let off = sizes { Slicer.default_options with Slicer.opt_augmentation = false } in
  Fmt.pf fmt
    "  response-slice statements: with augmentation %d, without %d (initialization context lost)@\n@\n"
    on off

(** The §3.4 weather-app example, hand-built: a location callback stores a
    query fragment ("city=<lat>") into the heap; a click later builds the
    request from it.  Without the asynchronous-event handling the constant
    keyword "city" disappears from the signature. *)
let weather_app () : Apk.t =
  let cls = "com.example.weather.Main" in
  let loc_cls = "com.example.weather.Loc" in
  let click_cls = "com.example.weather.Click" in
  let frag_field = { Ir.fcls = cls; fname = "frag"; fty = Ir.Str } in
  let act_ty = Ir.Obj cls in
  let holder_init c =
    B.mk_meth ~cls:c ~name:"<init>" ~params:[ B.local "a" act_ty ] ~ret:Ir.Void
      (fun b ->
        B.set_field b (Ir.this_var c)
          { Ir.fcls = c; fname = "act"; fty = act_ty }
          (Ir.Local (B.local "a" act_ty)))
  in
  let on_loc =
    B.mk_meth ~cls:loc_cls ~name:"onLocationChanged"
      ~params:[ B.local "loc" (Ir.Obj Api.location) ]
      ~ret:Ir.Void
      (fun b ->
        let lat =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str
               (B.local "loc" (Ir.Obj Api.location))
               Api.location "getLat" [])
        in
        let sb = B.new_obj b Api.string_builder [ B.vstr "city=" ] in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl lat ]);
        let frag =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let act =
          B.get_field b (Ir.this_var loc_cls)
            { Ir.fcls = loc_cls; fname = "act"; fty = act_ty }
        in
        B.set_field b act frag_field (Ir.Local frag))
  in
  let on_click =
    B.mk_meth ~cls:click_cls ~name:"onClick"
      ~params:[ B.local "v" (Ir.Obj Api.view) ]
      ~ret:Ir.Void
      (fun b ->
        let act =
          B.get_field b (Ir.this_var click_cls)
            { Ir.fcls = click_cls; fname = "act"; fty = act_ty }
        in
        let frag = B.get_field b act frag_field in
        let sb =
          B.new_obj b Api.string_builder
            [ B.vstr "http://api.weather.example/report?" ]
        in
        B.call b
          (B.virtual_call ~ret:(Ir.Obj Api.string_builder) sb Api.string_builder
             "append" [ B.vl frag ]);
        let url =
          B.call_ret b Ir.Str
            (B.virtual_call ~ret:Ir.Str sb Api.string_builder "toString" [])
        in
        let req = B.new_obj b Api.http_get [ B.vl url ] in
        let client = B.new_obj b Api.default_http_client [] in
        ignore
          (B.call_ret b (Ir.Obj Api.http_response)
             (B.virtual_call ~ret:(Ir.Obj Api.http_response) client Api.http_client
                "execute" [ B.vl req ])))
  in
  let on_create =
    B.mk_meth ~cls ~name:"onCreate" ~params:[] ~ret:Ir.Void (fun b ->
        let this = Ir.this_var cls in
        let lm = B.new_obj b Api.location_manager [] in
        let ll = B.new_obj b loc_cls [ Ir.Local this ] in
        B.call b
          (B.virtual_call lm Api.location_manager "requestLocationUpdates"
             [ B.vl ll ]);
        let lsn = B.new_obj b click_cls [ Ir.Local this ] in
        let view =
          B.call_ret b (Ir.Obj Api.view)
            (B.virtual_call ~ret:(Ir.Obj Api.view) this Api.activity "findViewById"
               [ B.vint 42 ])
        in
        B.call b (B.virtual_call view Api.view "setOnClickListener" [ B.vl lsn ]))
  in
  let classes =
    [
      B.mk_cls ~super:Api.activity
        ~fields:[ B.mk_field "frag" Ir.Str ]
        cls [ on_create ];
      B.mk_cls ~super:Api.location_listener
        ~fields:[ B.mk_field "act" act_ty ]
        loc_cls
        [ holder_init loc_cls; on_loc ];
      B.mk_cls ~super:Api.on_click_listener
        ~fields:[ B.mk_field "act" act_ty ]
        click_cls
        [ holder_init click_cls; on_click ];
    ]
  in
  Apk.make ~package:"com.example.weather" ~label:"weather" ~activities:[ cls ]
    { Ir.p_classes = classes; p_entries = [] }

let run_ablate_async () =
  Fmt.pf fmt
    "Ablation — asynchronous-event heuristic (§3.4, the weather-app example)@\n";
  let apk = weather_app () in
  let sig_of options =
    let analysis = Pipeline.analyze ~options apk in
    match analysis.Pipeline.an_report.Report.rp_transactions with
    | [ tr ] -> Strsig.to_regex tr.Report.tr_request.Msgsig.rs_uri
    | txs -> Fmt.str "(%d transactions)" (List.length txs)
  in
  let on = sig_of Pipeline.default_options in
  let off = sig_of Pipeline.open_source_options in
  Fmt.pf fmt "  with heuristic:    %s@\n" on;
  Fmt.pf fmt "  without heuristic: %s@\n" off;
  Fmt.pf fmt "  keyword 'city' identified: with=%b without=%b@\n@\n"
    (Tables.Str_replace.contains on "city")
    (Tables.Str_replace.contains off "city")

let run_ablate_pairing () =
  Fmt.pf fmt "Ablation — disjoint-segment pairing (§3.3, Figure 5)@\n";
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "SharedDP") in
  let apk = Lazy.force e.Corpus.c_apk in
  let count options =
    let analysis = Pipeline.analyze ~options apk in
    List.length analysis.Pipeline.an_report.Report.rp_transactions
  in
  let ctx_on = count Pipeline.default_options in
  let ctx_off =
    count { Pipeline.default_options with Pipeline.op_context_sensitive = false }
  in
  Fmt.pf fmt
    "  transactions with disjoint contexts: %d; merged (naive) contexts: %d@\n@\n"
    ctx_on ctx_off

let run_ablate_worklist () =
  Fmt.pf fmt
    "Ablation — topological signature building vs naive iteration (§3.2)@\n";
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "Diode") in
  let apk = Lazy.force e.Corpus.c_apk in
  let program = Pipeline.with_library_classes apk.Apk.program in
  let apk = { apk with Apk.program } in
  let prog = Prog.of_program program in
  let cg =
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  let slices = Slicer.run prog cg in
  let time options =
    let t0 = Unix.gettimeofday () in
    let interp = Interp.create ~options ~slices prog cg apk in
    let txs = Interp.run interp in
    (Unix.gettimeofday () -. t0, List.length txs)
  in
  let t_topo, n_topo = time Interp.default_options in
  let t_naive, n_naive =
    time { Interp.default_options with Interp.io_naive_order = true }
  in
  Fmt.pf fmt
    "  topological order: %.4fs (%d txs); naive iteration: %.4fs (%d txs); slowdown %.1fx@\n@\n"
    t_topo n_topo t_naive n_naive
    (if t_topo > 0. then t_naive /. t_topo else 0.)

let run_ablate_intents () =
  (* §4 extension: with intent resolution on, the intent-carried requests
     that Table 1 deliberately misses become statically visible. *)
  Fmt.pf fmt "Ablation — intent-service resolution (§4 extension)@
";
  let entries = Corpus.table1 () in
  let candidates =
    List.filter
      (fun (e : Corpus.entry) ->
        List.exists
          (fun (ep : Spec.endpoint) -> not ep.Spec.e_supported)
          e.Corpus.c_app.Spec.a_endpoints)
      entries
  in
  let sample = List.filteri (fun i _ -> i < 3) candidates in
  List.iter
    (fun (e : Corpus.entry) ->
      let apk = Lazy.force e.Corpus.c_apk in
      let count options =
        List.length
          (Pipeline.analyze ~options apk).Pipeline.an_report
            .Report.rp_transactions
      in
      let base_opts =
        if e.Corpus.c_app.Spec.a_closed then Pipeline.default_options
        else Pipeline.open_source_options
      in
      let off = count base_opts in
      let on = count { base_opts with Pipeline.op_intents = true } in
      let total = List.length e.Corpus.c_app.Spec.a_endpoints in
      Fmt.pf fmt
        "  %-24s endpoints %2d: transactions %2d (paper config) -> %2d (intents resolved)@
"
        e.Corpus.c_app.Spec.a_name total off on)
    sample;
  Fmt.pf fmt "@
"

let run_sweep () =
  (* Scalability: analysis wall-clock as the app grows, topological
     signature building vs the naive iterate-to-fixpoint baseline (§3.2's
     scalability argument beyond the single-app ablation). *)
  Fmt.pf fmt "Scalability sweep — analysis time vs app size@
";
  Fmt.pf fmt "  %10s %10s %12s %12s %9s@
" "endpoints" "stmts" "topo (s)"
    "naive (s)" "slowdown";
  List.iter
    (fun n ->
      let per_method = n / 2 in
      let row =
        Extr_corpus.Synth.row
          (Printf.sprintf "sweep-%d" n)
          "com.sweep" ~https:true ~closed:true
          ~get:(per_method, per_method, per_method)
          ~post:(n - per_method, n - per_method, n - per_method)
          ~query:(n / 3) ~json:(n / 3) ~pairs:n
      in
      let app = Extr_corpus.Synth.synthesize_app row in
      let apk = Corpus.apk_of_app app in
      (* Shared front end; only the signature-building order differs. *)
      let program = Pipeline.with_library_classes apk.Apk.program in
      let apk = { apk with Apk.program } in
      let prog = Prog.of_program program in
      let cg =
        Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
          ~callback_triggers:Callbacks.trigger_names prog
      in
      let slices = Slicer.run prog cg in
      let time naive =
        let options =
          { Interp.default_options with Interp.io_naive_order = naive }
        in
        let t0 = Unix.gettimeofday () in
        let interp = Interp.create ~options ~slices prog cg apk in
        let txs = Interp.run interp in
        (Unix.gettimeofday () -. t0, List.length txs)
      in
      let t_topo, _ = time false in
      let t_naive, _ = time true in
      Fmt.pf fmt "  %10d %10d %12.4f %12.4f %8.1fx@
" n
        (Prog.app_stmt_count prog) t_topo t_naive
        (if t_topo > 0. then t_naive /. t_topo else 0.))
    [ 5; 10; 20; 40; 80 ];
  Fmt.pf fmt "@
"

let run_ablate_deobf () =
  Fmt.pf fmt "Ablation — library de-obfuscation (§3.4)@
";
  let entries = Corpus.case_studies () in
  let e = Option.get (Corpus.find entries "radio reddit") in
  let apk = Lazy.force e.Corpus.c_apk in
  let count apk =
    let analysis = Pipeline.analyze apk in
    List.length analysis.Pipeline.an_report.Report.rp_transactions
  in
  let obf, _ = Extr_apk.Obfuscator.obfuscate_libraries apk in
  let recovered, mapping = Extr_apk.Deobfuscator.deobfuscate obf in
  Fmt.pf fmt
    "  transactions: original %d; library-obfuscated (no recovery) %d; after de-obfuscation %d (map: %d classes, %d methods)@
@
"
    (count apk) (count obf) (count recovered)
    (List.length mapping.Extr_apk.Deobfuscator.dm_classes)
    (List.length mapping.Extr_apk.Deobfuscator.dm_methods)

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let all () =
  run_table3 ();
  run_table4 ();
  run_table5 ();
  run_table6 ();
  run_fig3 ();
  run_fig5 ();
  run_ablate_aug ();
  run_ablate_async ();
  run_ablate_pairing ();
  run_ablate_worklist ();
  run_ablate_deobf ();
  run_ablate_intents ();
  run_sweep ();
  run_table1 ();
  run_fig6 ();
  run_fig7 ();
  run_table2 ();
  run_timing ();
  run_micro ()

(* bench --baseline FILE [--threshold X] [--json OUT] *)
let parse_baseline args =
  let baseline = ref None in
  let threshold = ref None in
  let json = ref None in
  let rec go = function
    | [] -> ()
    | "--baseline" :: path :: rest ->
        baseline := Some path;
        go rest
    | "--threshold" :: t :: rest -> (
        match float_of_string_opt t with
        | Some f when f > 0. ->
            threshold := Some f;
            go rest
        | _ -> Fmt.failwith "invalid --threshold %S" t)
    | "--json" :: path :: rest ->
        json := Some path;
        go rest
    | arg :: _ -> Fmt.failwith "unknown bench --baseline argument %S" arg
  in
  go args;
  match !baseline with
  | None -> Fmt.failwith "--baseline needs a FILE"
  | Some baseline ->
      run_baseline ~baseline ?threshold:!threshold ?json:!json ()

let () =
  match Sys.argv with
  | [| _ |] -> all ()
  | _ when Array.length Sys.argv > 1 && Sys.argv.(1) = "--baseline" ->
      parse_baseline (List.tl (Array.to_list Sys.argv))
  | [| _; "table1" |] -> run_table1 ()
  | [| _; "fig6" |] -> run_fig6 ()
  | [| _; "fig7" |] -> run_fig7 ()
  | [| _; "table2" |] -> run_table2 ()
  | [| _; "table3" |] -> run_table3 ()
  | [| _; "table4" |] -> run_table4 ()
  | [| _; "table5" |] -> run_table5 ()
  | [| _; "table6" |] -> run_table6 ()
  | [| _; "fig3" |] -> run_fig3 ()
  | [| _; "fig5" |] -> run_fig5 ()
  | [| _; "timing" |] -> run_timing ()
  | [| _; "timing"; "--json"; path |] -> run_timing ~json:path ()
  | [| _; "micro" |] -> run_micro ()
  | [| _; "ablate-aug" |] -> run_ablate_aug ()
  | [| _; "ablate-async" |] -> run_ablate_async ()
  | [| _; "ablate-pairing" |] -> run_ablate_pairing ()
  | [| _; "ablate-worklist" |] -> run_ablate_worklist ()
  | [| _; "ablate-deobf" |] -> run_ablate_deobf ()
  | [| _; "sweep" |] -> run_sweep ()
  | [| _; "ablate-intents" |] -> run_ablate_intents ()
  | _ ->
      Fmt.epr
        "usage: bench          [table1|fig6|fig7|table2|table3|table4|table5|table6|fig3|fig5|timing|micro|ablate-*]@.";
      Fmt.epr
        "       bench --baseline FILE [--threshold X] [--json OUT]   regression diff against a committed timing baseline@.";
      exit 1
