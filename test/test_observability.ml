(* Observability tests: journal record stamps and the read-only loader,
   the offline stats reconstruction (including torn-tail journals from
   killed runs, checked against the --resume view of the same file), and
   the live progress heartbeat under an injected clock. *)

module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics
module Span = Extr_telemetry.Span
module Export = Extr_telemetry.Export
module Profile = Extr_telemetry.Profile
module Journal = Extr_resilience.Journal
module Corpus = Extr_corpus.Corpus
module Runner = Extr_eval.Runner
module Stats = Extr_eval.Stats
module Merge = Extr_eval.Merge
module Progress = Extr_eval.Progress

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "obs_test.%d.%s" (Unix.getpid ()) name)

let started app =
  Journal.Started { ev_app = app; ev_key = "k-" ^ app; ev_attempt = 1 }

let finished ?(status = "ok") ?(cached = false) ?(attempts = 1) ?(txs = 3) app
    =
  Journal.Finished
    {
      ev_app = app;
      ev_key = "k-" ^ app;
      ev_status = status;
      ev_cached = cached;
      ev_attempts = attempts;
      ev_txs = txs;
    }

(* ------------------------------------------------------------------ *)
(* Journal stamps and the read-only loader                            *)
(* ------------------------------------------------------------------ *)

let test_journal_stamps () =
  let path = tmp_path "stamps.jsonl" in
  let clock = Clock.fake ~start:1000.0 ~step:10.0 () in
  let j = Journal.create ~clock ~path ~config:"cfg" () in
  Journal.append j (started "a");
  Journal.append j (finished "a");
  match Journal.read_lenient ~path with
  | Error msg -> Alcotest.fail msg
  | Ok (config, events, _) ->
      check Alcotest.(option string) "header config" (Some "cfg") config;
      let stamps = List.map fst events in
      (* The header consumed clock tick 1000; records get 1010, 1020. *)
      check
        Alcotest.(list (float 0.0))
        "records stamped by the journal clock" [ 1010.0; 1020.0 ]
        stamps;
      Sys.remove path

let test_read_tolerates_torn_tail_without_truncating () =
  let path = tmp_path "torn.jsonl" in
  let j =
    Journal.create ~clock:(Clock.fake ~start:5.0 ~step:1.0 ()) ~path
      ~config:"cfg" ()
  in
  Journal.append j (started "a");
  Journal.append j (finished "a");
  (* A kill mid-append: a partial record with no trailing newline. *)
  let oc = Out_channel.open_gen [ Open_append ] 0o644 path in
  Out_channel.output_string oc "{\"event\":\"finis";
  Out_channel.close oc;
  let size () = (Unix.stat path).Unix.st_size in
  let before = size () in
  (match Journal.read_lenient ~path with
  | Error msg -> Alcotest.fail msg
  | Ok (_, events, _) ->
      check Alcotest.int "torn tail skipped" 2 (List.length events));
  (* Unlike load, read must not repair the file. *)
  check Alcotest.int "file untouched by read" before (size ());
  (* The resume view of the same file truncates the tear and agrees on
     the surviving records. *)
  (match Journal.load ~path ~config:"cfg" () with
  | Error msg -> Alcotest.fail msg
  | Ok (_, events, _) ->
      check Alcotest.int "load sees the same records" 2 (List.length events);
      check Alcotest.bool "load truncates the tear" true (size () < before));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Offline stats                                                       *)
(* ------------------------------------------------------------------ *)

(* A journal as a killed run leaves it: two finished apps (one cached,
   one degraded after a retry), one crashed-then-quarantined app, one
   app still in flight when the run died, plus a torn trailing line. *)
let write_killed_journal path =
  let clock = Clock.fake ~start:100.0 ~step:5.0 () in
  let j = Journal.create ~clock ~path ~config:"cfg" () in
  Journal.append j (started "fast");
  Journal.append j (finished "fast");
  Journal.append j (started "slow");
  Journal.append j
    (Journal.Retried
       { ev_app = "slow"; ev_attempt = 2; ev_reason = "budget exhausted" });
  Journal.append j (finished ~status:"degraded" ~attempts:2 "slow");
  Journal.append j (finished ~status:"ok" ~cached:true ~attempts:0 "warm");
  Journal.append j (started "doomed");
  Journal.append j
    (Journal.Crashed
       {
         ev_app = "doomed";
         ev_phase = "pipeline.slicing";
         ev_exn = "Stack_overflow";
       });
  Journal.append j
    (finished ~status:"quarantined" ~attempts:2 ~txs:0 "doomed");
  Journal.append j (started "unfinished");
  let oc = Out_channel.open_gen [ Open_append ] 0o644 path in
  Out_channel.output_string oc "{\"event\":\"crashed\",\"app\":\"unfin";
  Out_channel.close oc

let test_stats_of_killed_journal () =
  let path = tmp_path "killed.jsonl" in
  write_killed_journal path;
  (match Stats.of_artifacts ~journals:[ path ] () with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      check Alcotest.string "config" "cfg" t.Stats.rs_config;
      (* The summary counts journal-finished apps only: the in-flight
         app must not inflate any bucket. *)
      check Alcotest.string "summary footer"
        "4 apps: 2 ok, 1 degraded, 1 quarantined (1 from cache)"
        (Stats.summary_line t);
      let by_app a =
        List.find (fun x -> x.Stats.st_app = a) t.Stats.rs_apps
      in
      check Alcotest.string "unfinished app is in flight" "in-flight"
        (by_app "unfinished").Stats.st_status;
      (* Wall time from the stamps: "slow" started at tick 115 and
         finished at 125 (header=100, each record +5). *)
      check
        (Alcotest.option (Alcotest.float 1e-9))
        "wall from stamps" (Some 10.0) (by_app "slow").Stats.st_wall_s;
      (* Cached apps never started, so they carry no wall time. *)
      check
        (Alcotest.option (Alcotest.float 0.0))
        "cached app has no wall" None (by_app "warm").Stats.st_wall_s;
      check
        Alcotest.(list (pair string int))
        "retry ladder"
        [ ("budget exhausted", 1) ]
        t.Stats.rs_retries;
      check
        Alcotest.(list (pair string int))
        "crash taxonomy"
        [ ("pipeline.slicing", 1) ]
        t.Stats.rs_crashes;
      (* Slowest list is wall-descending (ties in journal order — the
         sort is stable) and excludes cached/in-flight apps. *)
      match Stats.slowest t with
      | [ (a1, w1); (a2, w2); (a3, w3) ] ->
          check Alcotest.string "slowest app" "slow" a1.Stats.st_app;
          check (Alcotest.float 1e-9) "slowest wall" 10.0 w1;
          check Alcotest.string "tie keeps journal order" "doomed"
            a2.Stats.st_app;
          check (Alcotest.float 1e-9) "tied wall" 10.0 w2;
          check Alcotest.string "third" "fast" a3.Stats.st_app;
          check (Alcotest.float 1e-9) "third wall" 5.0 w3
      | l -> Alcotest.failf "expected 3 slowest apps, got %d" (List.length l));
  Sys.remove path

(* One journal read by all three readers: an app killed while it was
   being re-run (finished, then started again), a quarantined app with
   its crash record and one without it, a finished record whose status
   no writer produces, and a torn trailing line.  Stats' finished set,
   the set --resume restores and merge's result set must be the same
   apps with the same statuses.  Stats and its audit count the same
   cache entries, past a stray file. *)
let test_stats_matches_resume_view () =
  let dir = tmp_path "agree" in
  Sys.mkdir dir 0o755;
  let path = Filename.concat dir "j.jsonl" in
  let cache = Filename.concat dir "cache" in
  let es = Corpus.generated ~seed:2 ~count:6 in
  let o =
    {
      Runner.default_options with
      Runner.ro_sleep = fst (Clock.sleep_recording ());
      ro_journal = Some path;
      ro_cache_dir = Some cache;
      ro_corpus_tag = Some "gen=2:6";
    }
  in
  let key app = Digest.to_hex (Digest.string app) in
  let finished ?(status = "ok") ?(txs = 0) app =
    Journal.Finished
      {
        ev_app = app;
        ev_key = key app;
        ev_status = status;
        ev_cached = false;
        ev_attempts = 1;
        ev_txs = txs;
      }
  in
  let started app =
    Journal.Started { ev_app = app; ev_key = key app; ev_attempt = 1 }
  in
  let j =
    Journal.create ~clock:(Clock.fake ~start:10.0 ~step:1.0 ()) ~path
      ~config:(Runner.journal_fingerprint o) ()
  in
  List.iter (Journal.append j)
    [
      started "gen0001"; finished "gen0001"; started "gen0002";
      finished "gen0002"; started "gen0003";
      Journal.Crashed
        { ev_app = "gen0003"; ev_phase = "pipeline.slicing"; ev_exn = "boom" };
      finished ~status:"quarantined" "gen0003"; started "gen0004";
      finished ~status:"quarantined" "gen0004";
      (* gen0001 is being re-run when the journal stops. *)
      started "gen0001";
    ];
  let oc = Out_channel.open_gen [ Open_append ] 0o644 path in
  Out_channel.output_string oc
    (Journal.line_of_event ~stamp:30.0
       (finished ~status:"mystery" "gen0005")
    ^ "\n{\"event\":\"crashed\",\"app\":\"gen00");
  Out_channel.close oc;
  (* Every ok app has its report in the cache, so a miss cannot be what
     keeps an app out of any reader's set. *)
  let store = Extr_store.Store.open_ ~dir:cache () in
  List.iter
    (fun app ->
      Option.iter
        (fun k ->
          Extr_store.Store.store store k
            "{\"degradations\":[],\"transactions\":[]}")
        (Extr_store.Store.key_of_string (key app)))
    [ "gen0001"; "gen0002" ];
  Out_channel.with_open_text (Filename.concat cache "NOTES.txt") (fun oc ->
      Out_channel.output_string oc "not a cache entry\n");
  let status_of (a : Runner.app_result) =
    (a.Runner.ar_app, Runner.status_name a.Runner.ar_status)
  in
  let want =
    [ ("gen0002", "ok"); ("gen0003", "quarantined"); ("gen0004", "quarantined") ]
  in
  let set = Alcotest.(list (pair string string)) in
  let stats =
    match Stats.of_artifacts ~journals:[ path ] ~cache_dir:cache () with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  check Alcotest.(option int) "stats counts the two entries" (Some 2)
    stats.Stats.rs_cache_entries;
  check Alcotest.int "the audit checks the same two" 2
    (Stats.verify ~journals:[ path ] ~cache_dir:cache ()).Stats.vr_cache_checked;
  check set "stats' finished set" want
    (List.filter_map
       (fun a ->
         if a.Stats.st_status = "in-flight" then None
         else Some (a.Stats.st_app, a.Stats.st_status))
       stats.Stats.rs_apps);
  let merged =
    match
      Merge.merge ~journals:[ path ] ~cache_dirs:[ cache ] ()
    with
    | Ok t -> t
    | Error msg -> Alcotest.fail msg
  in
  check set "merge's result set" want
    (List.map status_of merged.Merge.mg_run.Runner.rn_results);
  check Alcotest.(list string) "merge's missing apps"
    [ "gen0001"; "gen0005"; "gen0006" ]
    merged.Merge.mg_missing_apps;
  check Alcotest.int "partial merge exits 4" 4 (Merge.exit_code merged);
  let crash_of (a : Runner.app_result) =
    Option.map
      (fun (c : Extr_resilience.Resilience.Barrier.crash) ->
        (c.cr_phase, c.cr_exn))
      a.Runner.ar_crash
  in
  let resumed =
    match Runner.run { o with Runner.ro_resume = true } es with
    | Ok r -> r
    | Error msg -> Alcotest.fail msg
  in
  let restored =
    List.filter (fun (a : Runner.app_result) -> a.Runner.ar_resumed)
      resumed.Runner.rn_results
  in
  check set "stats and --resume agree on the finished set" want
    (List.map status_of restored);
  check
    Alcotest.(list (option (pair string string)))
    "merge and --resume replay the same crashes"
    (List.map crash_of restored)
    (List.map crash_of merged.Merge.mg_run.Runner.rn_results);
  check
    Alcotest.(list (option (pair string string)))
    "a missing crash record gets the one fallback"
    [ None; Some ("pipeline.slicing", "boom");
      Some ("?", "crash record missing from journal") ]
    (List.map crash_of restored)

let test_stats_restarted_app_in_flight () =
  (* An app started again AFTER finishing (killed during a re-run) is in
     flight for --resume, and must be for stats too. *)
  let path = tmp_path "restart.jsonl" in
  let j =
    Journal.create ~clock:(Clock.fake ~start:1.0 ~step:1.0 ()) ~path
      ~config:"cfg" ()
  in
  Journal.append j (started "a");
  Journal.append j (finished "a");
  Journal.append j (started "a");
  (match Stats.of_artifacts ~journals:[ path ] () with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      check Alcotest.string "re-started app back in flight"
        "0 apps: 0 ok, 0 degraded, 0 quarantined (0 from cache)"
        (Stats.summary_line t));
  Sys.remove path

let test_stats_phase_percentiles_from_metrics () =
  (* End to end through the real exporter: a pipeline.phase_us series
     written by Export.write_metrics comes back as a phase row with the
     p50/p95/p99 the exporter annotated. *)
  let jpath = tmp_path "ph.jsonl" in
  let j =
    Journal.create ~clock:(Clock.fake ~start:0.0 ~step:1.0 ()) ~path:jpath
      ~config:"cfg" ()
  in
  Journal.append j (started "a");
  Journal.append j (finished "a");
  let r = Metrics.create ~enabled:true () in
  let h =
    Metrics.histogram ~registry:r ~buckets:[ 100.0; 1000.0 ]
      "pipeline.phase_us"
  in
  for _ = 1 to 10 do
    Metrics.observe h ~labels:[ ("phase", "slicing") ] 50.0
  done;
  let mpath = tmp_path "ph-metrics.json" in
  Export.write_metrics mpath r;
  (match Stats.of_artifacts ~journals:[ jpath ] ~metrics:mpath () with
  | Error msg -> Alcotest.fail msg
  | Ok t -> (
      match t.Stats.rs_phases with
      | [ p ] ->
          check Alcotest.string "phase label" "slicing" p.Stats.ph_name;
          check Alcotest.int "phase count" 10 p.Stats.ph_count;
          check
            (Alcotest.option (Alcotest.float 1e-9))
            "p50 from the exporter" (Some 50.0) p.Stats.ph_p50_us
      | l ->
          Alcotest.failf "expected one phase row, got %d" (List.length l)));
  Sys.remove jpath;
  Sys.remove mpath

let test_stats_rejects_wrong_artifact () =
  (* A profile passed as --metrics, or a snapshot as --profile, is an
     error with the message merge prints for the same mistake, not a
     silently missing section; an empty snapshot is still a snapshot. *)
  let jpath = tmp_path "kind.jsonl" in
  let j =
    Journal.create ~clock:(Clock.fake ~start:0.0 ~step:1.0 ()) ~path:jpath
      ~config:"cfg" ()
  in
  Journal.append j (started "a");
  Journal.append j (finished "a");
  let ppath = tmp_path "kind-profile.json" in
  let mpath = tmp_path "kind-metrics.json" in
  Export.write_file ppath
    (Export.profile_json (Profile.snapshot (Profile.create ()), []));
  Export.write_metrics mpath (Metrics.create ());
  (match
     ( Stats.of_artifacts ~journals:[ jpath ] ~metrics:ppath (),
       Merge.merge_metrics [ ppath ] )
   with
  | Error stats_msg, Error merge_msg ->
      check Alcotest.string "stats says what merge says" merge_msg stats_msg
  | Ok _, _ -> Alcotest.fail "stats accepted a profile as --metrics"
  | _, Ok _ -> Alcotest.fail "merge accepted a profile as --metrics");
  (match Stats.of_artifacts ~journals:[ jpath ] ~profile:mpath () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stats accepted a metrics snapshot as --profile");
  (match Stats.of_artifacts ~journals:[ jpath ] ~metrics:mpath () with
  | Ok t ->
      check Alcotest.int "empty snapshot, no phase rows" 0
        (List.length t.Stats.rs_phases)
  | Error msg -> Alcotest.fail msg);
  List.iter Sys.remove [ jpath; ppath; mpath ]

let test_stats_missing_journal () =
  match Stats.of_artifacts ~journals:[ tmp_path "nope.jsonl" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing journal must be an error"

(* ------------------------------------------------------------------ *)
(* Live progress                                                       *)
(* ------------------------------------------------------------------ *)

let app_result ?(status = Runner.Ok) ?(cached = false) app =
  {
    Runner.ar_app = app;
    ar_status = status;
    ar_cached = cached;
    ar_resumed = false;
    ar_attempts = 1;
    ar_txs = 0;
    ar_degradations = [];
    ar_elapsed_s = 0.0;
    ar_crash = None;
    ar_report_json = None;
  }

let collect () =
  let buf = Buffer.create 256 in
  (buf, fun s -> Buffer.add_string buf s)

let test_progress_lines_mode () =
  let buf, emit = collect () in
  let clock = Clock.fake ~start:0.0 ~step:1.0 () in
  let p =
    Progress.create ~clock ~min_interval_s:0.0 ~mode:Progress.Lines ~total:3
      ~emit ()
  in
  Progress.on_state p ~busy:2 ~idle:0 ~pending:1;
  Progress.on_journal p ~at:1.0 (started "a");
  Progress.on_journal p ~at:3.0 (finished "a");
  Progress.on_result p (app_result "a");
  Progress.finish p;
  let out = Buffer.contents buf in
  let has needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "structured lines" true (has "progress: ");
  check Alcotest.bool "counts" true (has "[1/3] 1 ok");
  check Alcotest.bool "worker shape" true (has "workers 2 busy/0 idle, 1 queued");
  (* One app took 2 s (started->finished), 2 busy workers, 2 remaining:
     eta = 2 * 2 / 2 = 2s. *)
  check Alcotest.bool "eta from journal pairs" true (has "eta 2s");
  check Alcotest.bool "no tty control sequences" false (has "\r")

let test_progress_tty_mode () =
  let buf, emit = collect () in
  let p =
    Progress.create
      ~clock:(Clock.fake ~start:0.0 ~step:1.0 ())
      ~mode:Progress.Tty ~total:2 ~emit ()
  in
  Progress.on_result p (app_result "a");
  Progress.finish p;
  let out = Buffer.contents buf in
  check Alcotest.bool "rewrites in place" true
    (String.length out > 0 && out.[0] = '\r');
  let has needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "erases to end of line" true (has "\x1b[K");
  check Alcotest.bool "eta unknown before first finish" true (has "eta --");
  (* finish clears the line so the summary table lands cleanly. *)
  check Alcotest.string "final clear" "\r\x1b[K"
    (String.sub out (String.length out - 4) 4)

(* A pooled run publishes records in commits, after it writes them: an
   app is timed by its records' write times, not by when the observer
   sees them.  Both records arrive at one instant, written 3 s apart. *)
let test_progress_times_apps_by_write_time () =
  let buf, emit = collect () in
  let clock, _advance = Clock.manual ~start:50.0 () in
  let p =
    Progress.create ~clock ~min_interval_s:0.0 ~mode:Progress.Lines ~total:2
      ~emit ()
  in
  Progress.on_journal p ~at:10.0 (started "a");
  Progress.on_journal p ~at:13.0 (finished "a");
  Progress.on_result p (app_result "a");
  Progress.finish p;
  let out = Buffer.contents buf in
  let has needle =
    let n = String.length needle and h = String.length out in
    let rec go i = i + n <= h && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  (* A 3 s mean over 1 remaining app at width 1. *)
  check Alcotest.bool "3 s mean from write times" true (has "eta 3s")

let test_progress_rate_limit () =
  (* Lines mode must not emit on every event: with a 10s interval and a
     1s-step clock, 5 results produce at most one line plus the forced
     final one. *)
  let buf, emit = collect () in
  let p =
    Progress.create
      ~clock:(Clock.fake ~start:0.0 ~step:1.0 ())
      ~min_interval_s:10.0 ~mode:Progress.Lines ~total:5 ~emit ()
  in
  for i = 1 to 5 do
    Progress.on_result p (app_result (string_of_int i))
  done;
  Progress.finish p;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "rate limited" true (List.length lines <= 2);
  (* The forced final line carries the complete picture. *)
  let last = List.nth lines (List.length lines - 1) in
  check Alcotest.bool "final line is complete" true
    (String.length last >= 14 && String.sub last 0 14 = "progress: [5/5")

(* ------------------------------------------------------------------ *)
(* Telemetry aggregation across jobs settings                         *)
(* ------------------------------------------------------------------ *)

(* The pool ships one telemetry delta per task and the coordinator
   merges it, so a --jobs 4 corpus run must agree with --jobs 1 on every
   count each recorder keeps: the counter series (outside the pool.*
   scheduler series, which only the pool records), the span names of
   the coordinator lane plus every worker lane, and the profile's
   method and waste rows.  The coordinator records one counter and one
   span of its own before the run; a worker must never ship them back,
   even one that never gets a task.  Wall times are sums of per-worker
   measurements — merged, never compared. *)
let m_pre_run = Metrics.counter "test.coordinator.pre_run"

let aggregates jobs entries =
  let recorders on =
    Metrics.set_enabled Metrics.default on;
    Span.set_enabled Span.default on;
    Profile.set_enabled Profile.default on;
    Metrics.reset Metrics.default;
    Span.reset Span.default;
    Profile.reset Profile.default
  in
  recorders true;
  Fun.protect ~finally:(fun () -> recorders false) @@ fun () ->
  Metrics.incr m_pre_run;
  Span.with_span "test.coordinator.pre_run" ignore;
  let options =
    {
      Runner.default_options with
      Runner.ro_jobs = jobs;
      ro_sleep = fst (Clock.sleep_recording ());
    }
  in
  let run =
    match Runner.run options entries with
    | Ok run -> run
    | Error e -> Alcotest.fail e
  in
  let counters =
    List.filter_map
      (fun (s : Metrics.sample) ->
        if s.sa_kind <> `Counter || String.starts_with ~prefix:"pool." s.sa_name
        then None
        else
          Some
            (Printf.sprintf "%s{%s} %d" s.sa_name
               (String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v) s.sa_labels))
               s.sa_count))
      (Metrics.snapshot Metrics.default)
  in
  let spans =
    Span.spans Span.default :: List.map snd run.Runner.rn_worker_spans
    |> List.concat_map (List.map (fun (sp : Span.span) -> sp.Span.sp_name))
    |> List.sort compare
  in
  let counts =
    List.map
      (fun (e : Profile.entry) ->
        Printf.sprintf "%s %s fuel=%d visits=%d facts=%d" e.Profile.e_phase
          e.e_meth e.e_fuel e.e_visits e.e_facts)
      (Profile.entries Profile.default)
  in
  let wastes =
    List.map
      (fun (w : Profile.waste) ->
        Printf.sprintf "%s touched=%d contributing=%d" w.Profile.w_scope
          w.w_touched w.w_contributing)
      (Profile.wastes Profile.default)
  in
  ( (counters, spans, counts, wastes),
    Metrics.value Metrics.default "pool.tasks.dispatched" )

(* Jobs 1 against jobs 4 on [entries]; returns the jobs-4 dispatch count. *)
let check_jobs_agree what entries =
  let (c1, s1, p1, w1), _ = aggregates 1 entries in
  let (c4, s4, p4, w4), dispatched = aggregates 4 entries in
  let says claim = Printf.sprintf "%s: %s" what claim in
  check Alcotest.bool (says "pre-run counter recorded") true
    (List.mem "test.coordinator.pre_run{} 1" c1);
  check Alcotest.bool (says "profiler saw methods") true (p1 <> []);
  check Alcotest.bool (says "profiler saw waste rows") true (w1 <> []);
  check
    Alcotest.(list string)
    (says "counters identical across jobs settings")
    c1 c4;
  check
    Alcotest.(list string)
    (says "span names identical across jobs settings")
    s1 s4;
  check
    Alcotest.(list string)
    (says "method counts identical across jobs settings")
    p1 p4;
  check
    Alcotest.(list string)
    (says "waste rows identical across jobs settings")
    w1 w4;
  dispatched

(* The four case studies, then four copies of the first: copies share a
   name, so they run as a chain and some of the four workers never get a
   task. *)
let test_jobs_aggregates_agree () =
  let studies =
    match Corpus.case_studies () with
    | a :: b :: c :: d :: _ -> [ a; b; c; d ]
    | es -> es
  in
  ignore (check_jobs_agree "case studies" studies);
  let chain = List.init 4 (fun _ -> List.hd studies) in
  check (Alcotest.float 0.) "namesake chain: one dispatch per task" 4.
    (check_jobs_agree "namesake chain" chain)

let () =
  Alcotest.run "observability"
    [
      ( "journal",
        [
          tc "records stamped by the journal clock" test_journal_stamps;
          tc "read-only loader tolerates a torn tail"
            test_read_tolerates_torn_tail_without_truncating;
        ] );
      ( "stats",
        [
          tc "killed-run journal reconstructs" test_stats_of_killed_journal;
          tc "agrees with the --resume view" test_stats_matches_resume_view;
          tc "re-started app back in flight" test_stats_restarted_app_in_flight;
          tc "phase percentiles from metrics"
            test_stats_phase_percentiles_from_metrics;
          tc "missing journal is an error" test_stats_missing_journal;
          tc "wrong artifact kind is an error"
            test_stats_rejects_wrong_artifact;
        ] );
      ( "progress",
        [
          tc "structured lines off-tty" test_progress_lines_mode;
          tc "rewriting line on tty" test_progress_tty_mode;
          tc "rate limiting" test_progress_rate_limit;
          tc "apps timed by record write time"
            test_progress_times_apps_by_write_time;
        ] );
      ( "profile",
        [
          tc "jobs 1 and jobs 4 aggregates agree on every count"
            test_jobs_aggregates_agree;
        ] );
    ]
