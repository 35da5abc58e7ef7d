(* Build-time end-to-end checks: drive the real extractocol binary
   through each run-artifact contract, render its manuals, and fail the
   build on violation.

     e2e_check.exe SCENARIO... EXTRACTOCOL_BINARY   (SCENARIO: all | name)

   Each scenario prints its own "NAME: FAIL ..." lines and a closing
   "NAME: ok" or failure count; the exit code is 1 if any failed.
   Scenarios named together share the corpus runs in [shared_runs], made
   once per process, and every comparison pairs runs that differ only in
   the property it checks — never a fresh-cache run with a cache-less or
   warm one, whose envelopes legitimately differ in their "cached" flags.
   Every artifact with a decoder (metrics snapshot, profile, report
   envelope, journal) is read through it; only the Chrome trace and the
   provenance export are walked as raw JSON.  All state lives in one
   temp directory, removed on success and kept (and named) on failure. *)

module Json = Extr_httpmodel.Json
module Export = Extr_telemetry.Export
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Journal = Extr_resilience.Journal
module Barrier = Extr_resilience.Resilience.Barrier
module Runner = Extr_eval.Runner
module Merge = Extr_eval.Merge
module Pipeline = Extr_extractocol.Pipeline
module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec

(* ------------------------------------------------------------------ *)
(* Scaffold                                                            *)
(* ------------------------------------------------------------------ *)

type ck = {
  ck_name : string;
  ck_exe : string;
  ck_dir : string;  (* the scenario's private directory *)
  mutable ck_failures : int;
}

(* One FAIL line per violation; the scenario carries on. *)
let fail ck fmt =
  Fmt.kstr
    (fun s ->
      ck.ck_failures <- ck.ck_failures + 1;
      Fmt.epr "%s: FAIL %s@." ck.ck_name s)
    fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* What follows the first [needle] in [hay], if it occurs. *)
let after ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i =
    if i + n > h then None
    else if String.sub hay i n = needle then
      Some (String.sub hay (i + n) (h - i - n))
    else go (i + 1)
  in
  go 0

let contains ~needle hay = after ~needle hay <> None

(* FAIL with [msg] unless [text] contains [needle]. *)
let expect_text ck ~needle text msg =
  if not (contains ~needle text) then fail ck "%s" msg

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter
      (fun f -> remove_tree (Filename.concat path f))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let root = ref ""
let shared_dir () = Filename.concat !root "shared"
let path ck name = Filename.concat ck.ck_dir name

(* Run the CLI with stdout and stderr into DIR/LABEL.out, or with
   stderr alone into DIR/LABEL.err when [split]. *)
let exec ?(split = false) ck ~dir label args =
  let out = Filename.concat dir (label ^ ".out") in
  let err = if split then Filename.concat dir (label ^ ".err") else out in
  let cmd = Filename.quote_command ck.ck_exe args ~stdout:out ~stderr:err in
  (Sys.command cmd, out)

let check_exit ck label ~expect (code, out) =
  if code <> expect then
    fail ck "%s run exited %d, expected %d (see %s)" label code expect out;
  read_file out

(* A run private to the scenario: demand [expect], return the output. *)
let run ck ~expect label args =
  check_exit ck label ~expect (exec ck ~dir:ck.ck_dir label args)

(* The flags of an --all run over DIR/LABEL.jsonl and DIR/LABEL-cache. *)
let corpus ~dir ~jobs label =
  let p ext = Filename.concat dir (label ^ ext) in
  [ "--all"; "--jobs"; string_of_int jobs; "--journal"; p ".jsonl";
    "--cache-dir"; p "-cache" ]

(* Cold runs of the real corpus with a fresh journal and cache, which
   several scenarios compare against: "seq" is the --jobs 1 baseline,
   "par" the same under the pool.  Each returns its envelope's path. *)
let jobs = 4
let shared_runs = [ ("seq", 1); ("par", jobs) ]
let made : (string, int * string) Hashtbl.t = Hashtbl.create 2

let shared_run ck label =
  let dir = shared_dir () in
  let envelope = Filename.concat dir (label ^ ".json") in
  let result =
    match Hashtbl.find_opt made label with
    | Some r -> r
    | None ->
        let jobs = List.assoc label shared_runs in
        let r =
          exec ck ~dir label
            (corpus ~dir ~jobs label @ [ "--report-out"; envelope ])
        in
        Hashtbl.replace made label r;
        r
  in
  ignore (check_exit ck ("shared " ^ label) ~expect:0 result);
  envelope

let same_file ck ~what a b =
  if not (String.equal (read_file a) (read_file b)) then
    fail ck "%s (%s vs %s must be byte-identical)" what a b

(* An artifact through its decoder; a decoding error is a FAIL and the
   scenario goes on with [default]. *)
let decoded ck ~default = function
  | Ok v -> v
  | Error msg ->
      fail ck "%s" msg;
      default

let apps ck file =
  decoded ck ~default:[]
    (Result.map
       (fun (en : Runner.envelope) -> en.Runner.en_run.Runner.rn_results)
       (Runner.envelope_of_json (read_file file)))

(* Pairwise over two envelopes' apps, which must cover the same apps. *)
let iter_apps ck ~what f clean other =
  if List.length other <> List.length clean then
    fail ck "%s covers %d apps, the clean run %d" what (List.length other)
      (List.length clean)
  else List.iter2 f clean other

let samples ck file = decoded ck ~default:[] (Export.read_metrics file)

(* A series' count summed over its label sets. *)
let count samples name =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      if s.Metrics.sa_name = name then acc + s.Metrics.sa_count else acc)
    0 samples

let trace_events ck file =
  match
    Option.bind (Json.of_string_opt (read_file file))
      (Json.list_member "traceEvents")
  with
  | Some events -> events
  | None ->
      fail ck "%s has no traceEvents array" file;
      []

(* ------------------------------------------------------------------ *)
(* metrics: telemetry wiring on the smallest app                       *)
(* ------------------------------------------------------------------ *)

(* Every expected series and phase span must be exported, and the lazy
   call graph must show it skipped at least one method SharedDP carries
   but no demarcation point reaches. *)
let required_metrics =
  [
    "slicer.demarcation_points"; "slicer.slice_stmts";
    "taint.backward.worklist_steps"; "taint.backward.facts";
    "taint.forward.worklist_steps"; "interp.statements";
    "interp.transactions"; "pairing.pairs"; "pipeline.elapsed_seconds";
    "pipeline.transactions"; "callgraph.methods_resolved";
    "callgraph.methods_skipped"; "slicer.skipped_method_ratio";
  ]

let metrics ck =
  let m = path ck "metrics.json" and t = path ck "trace.json" in
  ignore
    (run ck ~expect:0 "smoke"
       [ "--metrics-out"; m; "--trace-out"; t; "SharedDP" ]);
  let ss = samples ck m in
  List.iter
    (fun name ->
      if not (List.exists (fun s -> s.Metrics.sa_name = name) ss) then
        fail ck "metric %S absent from snapshot" name)
    required_metrics;
  if count ss "callgraph.methods_skipped" < 1 then
    fail ck "callgraph.methods_skipped = %d, expected at least 1"
      (count ss "callgraph.methods_skipped");
  let events = trace_events ck t in
  List.iter
    (fun span ->
      let complete e =
        Json.str_member "ph" e = Some "X"
        && Json.str_member "name" e = Some span
      in
      if not (List.exists complete events) then
        fail ck "no complete event for span %S" span)
    ("pipeline.analyze"
    :: List.map (fun p -> "pipeline." ^ p) Pipeline.phase_names)

(* ------------------------------------------------------------------ *)
(* explain: provenance wiring on the smallest app                      *)
(* ------------------------------------------------------------------ *)

(* "cls.meth:idx" — the shape Stmt_id.to_string gives a resolved
   statement. *)
let looks_like_stmt_id s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 ->
      let n = String.sub s (i + 1) (String.length s - i - 1) in
      Option.value ~default:(-1) (int_of_string_opt n) >= 0
  | _ -> false

(* Every reported transaction needs a non-empty evidence chain of
   resolved statement ids, and --explain must render them. *)
let explain ck =
  let prov = path ck "provenance.json" in
  let text =
    run ck ~expect:0 "explain"
      [ "--explain"; "--provenance-out"; prov; "SharedDP" ]
  in
  let j = Json.of_string_opt (read_file prov) in
  let list key =
    match Option.bind j (Json.list_member key) with
    | Some l -> l
    | None ->
        fail ck "%s: no %S array" prov key;
        []
  in
  let txs = list "transactions" and evidence = list "provenance" in
  if List.length evidence <> List.length txs then
    fail ck "%d transactions but %d evidence records" (List.length txs)
      (List.length evidence);
  let covered = List.filter_map (Json.int_member "tx") evidence in
  List.iter
    (fun tx ->
      match Json.int_member "id" tx with
      | None -> fail ck "transaction without an id"
      | Some id ->
          if not (List.mem id covered) then
            fail ck "transaction #%d has no evidence record" id)
    txs;
  List.iter
    (fun ev ->
      let id = Option.value ~default:(-1) (Json.int_member "tx" ev) in
      match Json.list_member "slice" ev with
      | None | Some [] -> fail ck "transaction #%d has an empty slice chain" id
      | Some steps ->
          List.iter
            (fun step ->
              match Json.str_member "stmt" step with
              | Some s when looks_like_stmt_id s -> ()
              | Some s ->
                  fail ck "#%d slice step has malformed statement id %S" id s
              | None -> fail ck "#%d slice step without a statement id" id)
            steps)
    evidence;
  expect_text ck ~needle:"demarcation point:" text
    "--explain output has no demarcation-point line";
  if contains ~needle:"<unresolved>" text then
    fail ck "--explain output contains unresolved statement ids"

(* ------------------------------------------------------------------ *)
(* resume and pool: kill -> resume byte-identity                       *)
(* ------------------------------------------------------------------ *)

(* Kill a run at its 2nd interpretation phase (exit 99), resume it from
   the journal, and return the resumed envelope.  Occurrence counts are
   per-process, so under a pool some worker reaches the count too. *)
let kill_and_resume ck ~jobs =
  let lifecycle = corpus ~dir:ck.ck_dir ~jobs "lifecycle" in
  ignore
    (run ck ~expect:99 "killed"
       (lifecycle @ [ "--inject"; "pipeline.interpretation@2:kill" ]));
  let resumed = path ck "resumed.json" in
  expect_text ck ~needle:"[resumed]"
    (run ck ~expect:0 "resumed"
       (lifecycle @ [ "--resume"; "--report-out"; resumed ]))
    "resumed run restored nothing from the journal";
  resumed

(* The sequential lifecycle: kill -> resume, then a warm re-run served
   wholly from the cache, then the --all exit-code contract. *)
let resume ck =
  let seq = shared_run ck "seq" in
  same_file ck ~what:"resumed report differs from the uninterrupted run's"
    (kill_and_resume ck ~jobs:1) seq;
  let warm_cache =
    [ "--all"; "--jobs"; "1"; "--cache-dir";
      Filename.concat (shared_dir ()) "seq-cache" ]
  in
  let warm = path ck "warm.json" and m = path ck "metrics.json" in
  ignore
    (run ck ~expect:0 "warm"
       (warm_cache @ [ "--report-out"; warm; "--metrics-out"; m ]));
  let warm_apps = apps ck warm in
  List.iter
    (fun (a : Runner.app_result) ->
      if not a.Runner.ar_cached then
        fail ck "warm run re-analyzed %s instead of using the cache"
          a.Runner.ar_app)
    warm_apps;
  let ss = samples ck m in
  if count ss "cache.hits" <> List.length warm_apps then
    fail ck "warm run: cache.hits = %d, expected one per app (%d)"
      (count ss "cache.hits") (List.length warm_apps);
  if count ss "cache.misses" <> 0 then
    fail ck "warm run: %d cache.misses on a fully warm cache"
      (count ss "cache.misses");
  expect_text ck ~needle:"quarantined: radio reddit"
    (run ck ~expect:2 "quarantined"
       (warm_cache @ [ "--inject"; "app.crash:radio reddit" ]))
    "app.crash target missing from the quarantine list";
  ignore
    (run ck ~expect:3 "degraded"
       [ "--all"; "--jobs"; "1"; "--max-steps"; "500"; "--retries"; "1" ])

(* Completion order under the pool must never leak into the envelope,
   cold or resumed. *)
let pool ck =
  let par = shared_run ck "par" in
  same_file ck ~what:"--jobs N report differs from --jobs 1" par
    (shared_run ck "seq");
  same_file ck ~what:"resumed --jobs N report differs from the uninterrupted"
    (kill_and_resume ck ~jobs) par

(* ------------------------------------------------------------------ *)
(* trace: merged worker telemetry and the offline stats view          *)
(* ------------------------------------------------------------------ *)

(* One thread_name lane per worker plus the coordinator's; every span on
   a declared lane, with a duration, per-lane timestamps monotonic, and
   every worker lane carrying spans. *)
let check_lanes ck file =
  let events = trace_events ck file in
  let lanes = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match (Json.str_member "name" e, Json.int_member "tid" e) with
      | Some "thread_name", Some tid when Json.str_member "ph" e = Some "M" ->
          if Hashtbl.mem lanes tid then
            fail ck "trace declares lane tid=%d twice" tid
          else
            Hashtbl.replace lanes tid
              (Option.value ~default:"?"
                 (Option.bind (Json.member "args" e) (Json.str_member "name")))
      | _ -> ())
    events;
  let workers =
    Hashtbl.fold
      (fun _ label n -> if has_prefix ~prefix:"worker " label then n + 1 else n)
      lanes 0
  in
  if workers <> jobs then
    fail ck "expected %d worker lanes, trace has %d" jobs workers;
  if not (Hashtbl.fold (fun _ l acc -> acc || l = "coordinator") lanes false)
  then fail ck "trace has no coordinator lane";
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun e ->
      if Json.str_member "ph" e = Some "X" then
        match (Json.int_member "tid" e, Json.num_member "ts" e) with
        | Some tid, Some ts ->
            if not (Hashtbl.mem lanes tid) then
              fail ck "span %S on undeclared lane tid=%d"
                (Option.value ~default:"?" (Json.str_member "name" e))
                tid;
            (match Hashtbl.find_opt last_ts tid with
            | Some prev when ts < prev ->
                fail ck "lane tid=%d timestamps not monotonic (%.0f after %.0f)"
                  tid ts prev
            | _ -> ());
            Hashtbl.replace last_ts tid ts;
            if Json.num_member "dur" e = None then
              fail ck "span on lane tid=%d has no duration" tid
        | _ -> fail ck "span event without tid/ts in %s" file)
    events;
  Hashtbl.iter
    (fun tid label ->
      if label <> "coordinator" && not (Hashtbl.mem last_ts tid) then
        fail ck "worker lane tid=%d (%s) shipped no spans" tid label)
    lanes

(* Shipping telemetry from the workers must not leak completion order
   into the envelope, and `stats` must rebuild the run's footer from the
   artifacts alone. *)
let trace ck =
  let p = path ck in
  let out =
    run ck ~expect:0 "traced"
      (corpus ~dir:ck.ck_dir ~jobs "traced"
      @ [
          "--metrics-out"; p "metrics.json"; "--trace-out"; p "trace.json";
          "--report-out"; p "traced.json";
        ])
  in
  same_file ck ~what:"telemetry shipping changed the --jobs N report"
    (p "traced.json") (shared_run ck "par");
  check_lanes ck (p "trace.json");
  let stats =
    run ck ~expect:0 "stats"
      [
        "stats"; "--journal"; p "traced.jsonl"; "--cache-dir";
        p "traced-cache"; "--metrics"; p "metrics.json";
      ]
  in
  (match
     List.find_opt
       (fun l -> contains ~needle:" apps: " (" " ^ l))
       (String.split_on_char '\n' out)
   with
  | None -> fail ck "--all output has no summary footer"
  | Some footer ->
      expect_text ck ~needle:footer stats
        (Printf.sprintf "stats does not reproduce the run footer %S" footer));
  expect_text ck ~needle:"pipeline phases" stats
    "stats did not render the per-phase percentile table";
  expect_text ck ~needle:"slowest apps" stats
    "stats did not render the slowest-apps table"

(* ------------------------------------------------------------------ *)
(* profile: the method-level profiler                                  *)
(* ------------------------------------------------------------------ *)

(* Per-method time flushes inside the engine loops, which run inside the
   pipeline phase span, so a phase's attribution ("slicing.backward"
   belongs to "pipeline.slicing") cannot exceed the span's cumulative
   time — 5 ms of slack absorbs clock granularity — and no phase's self
   time is negative (a worker lane holds many tasks' spans, each
   recording's own children only count).  Waste rows must hold possible
   counts, with a touched row for [scope]. *)
let check_profile ck ~scope ((sn : Profile.snapshot), phases) =
  if sn.Profile.sn_entries = [] then
    fail ck "profile artifact has no method rows";
  let sums = Hashtbl.create 4 in
  List.iter
    (fun (e : Profile.entry) ->
      if e.Profile.e_meth = "" then fail ck "profile row without a method name";
      if e.e_visits < 0 || e.e_fuel < 0 || e.e_time_s < 0.0 then
        fail ck "profile row for %s has a negative count or time" e.e_meth;
      let prefix = List.hd (String.split_on_char '.' e.e_phase) in
      let sum = Option.value ~default:0.0 (Hashtbl.find_opt sums prefix) in
      Hashtbl.replace sums prefix (sum +. e.e_time_s))
    sn.Profile.sn_entries;
  Hashtbl.iter
    (fun prefix total ->
      let span = "pipeline." ^ prefix in
      match List.find_opt (fun (name, _, _) -> name = span) phases with
      | None -> fail ck "profile phase rollup has no %s span" span
      | Some (_, cum, _) ->
          if total > cum +. 0.005 then
            fail ck
              "method attribution for %s sums to %.6fs, exceeding its \
               enclosing %s span (%.6fs)"
              prefix total span cum)
    sums;
  List.iter
    (fun (name, _, self) ->
      if self < -1e-6 then
        fail ck "phase %s has a negative self time (%.6fs)" name self)
    phases;
  if sn.Profile.sn_wastes = [] then
    fail ck "profile artifact has no waste rows";
  List.iter
    (fun (w : Profile.waste) ->
      if w.Profile.w_contributing < 0 || w.w_contributing > w.w_touched then
        fail ck "waste row with impossible counts (%d touched, %d contributing)"
          w.w_touched w.w_contributing;
      if w.w_scope = scope && w.w_touched = 0 then
        fail ck "waste row for %s touched no methods" scope)
    sn.Profile.sn_wastes;
  if not (List.exists (fun w -> w.Profile.w_scope = scope) sn.sn_wastes) then
    fail ck "no waste row for %s" scope

(* Every line "frame;frame;... count": non-empty frames, a non-negative
   integer count. *)
let check_folded ck file =
  let lines =
    List.filter (( <> ) "") (String.split_on_char '\n' (read_file file))
  in
  if lines = [] then fail ck "folded export %s is empty" file;
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> fail ck "folded line has no count: %S" line
      | Some i ->
          let n = String.sub line (i + 1) (String.length line - i - 1) in
          if Option.value ~default:(-1) (int_of_string_opt n) < 0 then
            fail ck "folded count is not a non-negative integer: %S" line;
          if List.mem "" (String.split_on_char ';' (String.sub line 0 i)) then
            fail ck "folded line has an empty stack or frame: %S" line)
    lines

(* What must agree exactly between --jobs 1 and --jobs N: every count,
   with the wall times (sums of per-worker measurements) set aside. *)
let counts ((sn : Profile.snapshot), phases) =
  ( List.map
      (fun (e : Profile.entry) -> { e with Profile.e_time_s = 0.0 })
      sn.Profile.sn_entries,
    sn.Profile.sn_wastes,
    List.map (fun (name, _, _) -> name) phases )

let profile ck =
  let none = ({ Profile.sn_entries = []; sn_wastes = [] }, []) in
  let read file = decoded ck ~default:none (Export.read_profile file) in
  let single = path ck "single.json" in
  let out =
    run ck ~expect:0 "single"
      [ "--profile-out"; single; "--profile"; "radio reddit" ]
  in
  check_profile ck ~scope:"radio reddit" (read single);
  check_folded ck (single ^ ".folded");
  expect_text ck ~needle:"waste[radio reddit]" out
    "--profile did not print the waste summary";
  expect_text ck ~needle:"slicing" out
    "--profile view names no slicing phase";
  (* Observation only: the profiler on must leave the envelope of the
     otherwise identical shared run untouched.  The view --profile
     prints on stderr is the profile section stats prints from the
     journal and the artifact, byte for byte. *)
  let profiled label jobs =
    let artifact = path ck (label ^ "-profile.json") in
    ignore
      (check_exit ck label ~expect:0
         (exec ~split:true ck ~dir:ck.ck_dir label
            (corpus ~dir:ck.ck_dir ~jobs label
            @ [
                "--report-out"; path ck (label ^ ".json"); "--profile-out";
                artifact; "--profile";
              ])));
    let view = read_file (path ck (label ^ ".err")) in
    let stats =
      run ck ~expect:0 (label ^ "-stats")
        [
          "stats"; "--journal"; path ck (label ^ ".jsonl"); "--profile";
          artifact;
        ]
    in
    if after ~needle:"profile (from --profile-out):\n" stats <> Some view then
      fail ck
        "the profile section of stats differs from the view --profile \
         printed (%s-stats.out vs %s.err)"
        label label;
    (artifact, view)
  in
  let pn, view = profiled "on" jobs in
  same_file ck ~what:"profiling changed the --all report envelope"
    (path ck "on.json") (shared_run ck "par");
  check_profile ck ~scope:"radio reddit" (read pn);
  expect_text ck ~needle:"pipeline.slicing" view
    "the --profile view of a pooled run has no phase rows";
  (* Namesake entries ("Diode#2") are served from their first copy's
     cache entry and analyze nothing. *)
  List.iter
    (fun (a : Runner.app_result) ->
      if not a.Runner.ar_cached then
        expect_text ck
          ~needle:(Printf.sprintf "waste[%s]" a.Runner.ar_app)
          view
          (Printf.sprintf "the --profile view has no waste row for %s"
             a.Runner.ar_app))
    (apps ck (path ck "on.json"));
  let p1, _ = profiled "p1" 1 in
  if counts (read p1) <> counts (read pn) then
    fail ck "--jobs N profile counts differ from --jobs 1 (%s vs %s)" pn p1;
  check_folded ck (p1 ^ ".folded")

(* ------------------------------------------------------------------ *)
(* shard: generate -> shard -> kill -> resume -> merge                *)
(* ------------------------------------------------------------------ *)

let shards = 3

(* The shard runs' configuration, which merge reads off their journals:
   it takes no configuration flag of its own. *)
let gen = [ "--gen"; "24"; "--gen-seed"; "5"; "--max-steps"; "5000000" ]

(* Merging the shards must reassemble the unsharded envelope byte for
   byte, after one shard is killed and resumed; re-merging the merged
   artifacts is a no-op that stats reads like a runner-written journal;
   the counters of uninterrupted shards' metrics add up to the unsharded
   run's; damaged artifacts degrade the merge, never abort it. *)
let shard ck =
  (* The runner's own partition: the first shard owning apps is the
     victim, killed inside its own run. *)
  let per_shard = Array.make shards 0 in
  List.iter
    (fun (e : Corpus.entry) ->
      let k = Runner.shard_index ~shards e.Corpus.c_app.Spec.a_name in
      per_shard.(k) <- per_shard.(k) + 1)
    (Corpus.generated ~seed:5 ~count:24);
  let victim =
    match Array.find_index (fun n -> n > 0) per_shard with
    | Some i -> i + 1
    | None -> failwith "generated corpus is empty"
  in
  let p = path ck in
  let journal k = p (Printf.sprintf "s%d.jsonl" k) in
  let cache k = p (Printf.sprintf "c%d" k) in
  (* Every run writes metrics, so the envelope comparison isolates
     sharding. *)
  let metrics label = p (label ^ "-metrics.json") in
  let all ~expect label ?(shard = []) ~journal ~cache extra =
    ignore
      (run ck ~expect label
         ([ "--all"; "--jobs"; "1" ] @ shard
         @ [ "--journal"; journal; "--cache-dir"; cache; "--metrics-out";
             metrics label ]
         @ gen @ extra))
  in
  let shard_run ~expect label k =
    all ~expect label ~shard:[ "--shard"; Printf.sprintf "%d/%d" k shards ]
  in
  all ~expect:0 "base" ~journal:(p "base.jsonl") ~cache:(p "base-cache")
    [ "--report-out"; p "base.json" ];
  let range = List.init shards (fun i -> i + 1) in
  let uninterrupted k =
    if k = victim then "clean" else Printf.sprintf "shard%d" k
  in
  List.iter
    (fun k ->
      let journal = journal k and cache = cache k in
      if k <> victim then
        shard_run ~expect:0 (uninterrupted k) k ~journal ~cache []
      else begin
        let n = min 2 per_shard.(k - 1) in
        shard_run ~expect:99 "killed" k ~journal ~cache
          [ "--inject"; Printf.sprintf "pipeline.interpretation@%d:kill" n ];
        shard_run ~expect:0 "resumed" k ~journal ~cache [ "--resume" ];
        (* A resumed shard's snapshot covers only its second run, so the
           metrics union takes an uninterrupted run of the same shard. *)
        shard_run ~expect:0 "clean" k ~journal:(p "clean.jsonl")
          ~cache:(p "clean-cache") []
      end)
    range;
  let jflags ks = List.concat_map (fun k -> [ "--journal"; journal k ]) ks in
  let cflags ks = List.concat_map (fun k -> [ "--cache-dir"; cache k ]) ks in
  let merge ~expect label args =
    ignore (run ck ~expect label ("merge" :: args))
  in
  merge ~expect:0 "merge"
    (jflags range @ cflags range
    @ List.concat_map
        (fun k -> [ "--metrics"; metrics (uninterrupted k) ])
        range
    @ [
        "--report-out"; p "merged.json"; "--journal-out"; p "merged.jsonl";
        "--cache-out"; p "merged-cache"; "--metrics-out"; metrics "merged";
      ]);
  same_file ck ~what:"merged report differs from the unsharded run's"
    (p "merged.json") (p "base.json");
  let counters label =
    List.filter_map
      (fun (s : Metrics.sample) ->
        if s.Metrics.sa_kind = `Counter then
          Some (s.Metrics.sa_name, s.sa_labels, s.sa_count)
        else None)
      (samples ck (metrics label))
  in
  if counters "merged" = [] || counters "merged" <> counters "base" then
    fail ck "merged shard counters differ from the unsharded run's (%s vs %s)"
      (metrics "merged") (metrics "base");
  merge ~expect:0 "remerge"
    [
      "--journal"; p "merged.jsonl"; "--cache-dir"; p "merged-cache";
      "--report-out"; p "merged2.json";
    ];
  same_file ck ~what:"re-merging the merged artifacts changed the envelope"
    (p "merged2.json") (p "merged.json");
  expect_text ck ~needle:"24 apps:"
    (run ck ~expect:0 "stats" [ "stats"; "--journal"; p "merged.jsonl" ])
    "stats did not reconstruct the merged journal's summary";
  let merged_envelope file =
    let empty =
      {
        Merge.mm_missing_shards = [];
        mm_missing_apps = [];
        mm_degradations = [];
      }
    in
    decoded ck ~default:([], empty)
      (Result.map
         (fun ((en : Runner.envelope), mm) ->
           (en.Runner.en_run.Runner.rn_results, mm))
         (Merge.envelope_of_json (read_file file)))
  in
  (* A truncated cache entry quarantines (exit 3) with every app kept. *)
  let corrupt_dir = p "corrupt-cache" in
  Sys.mkdir corrupt_dir 0o755;
  let entries = Sys.readdir (cache victim) in
  if entries = [||] then failwith "victim shard left an empty cache";
  Array.iteri
    (fun i f ->
      Out_channel.with_open_bin (Filename.concat corrupt_dir f) (fun oc ->
          Out_channel.output_string oc
            (if i = 0 then "{\"torn"
             else read_file (Filename.concat (cache victim) f))))
    entries;
  let other = List.filter (fun k -> k <> victim) range in
  merge ~expect:3 "corrupt"
    (jflags range @ [ "--cache-dir"; corrupt_dir ] @ cflags other
    @ [ "--report-out"; p "corrupt.json" ]);
  let results, mm = merged_envelope (p "corrupt.json") in
  if
    not
      (List.exists
         (fun d -> d.Merge.md_reason = "corrupt cache entry quarantined")
         mm.Merge.mm_degradations)
  then fail ck "corrupt cache entry not quarantined in merge_degradations[]";
  if List.length results <> 24 then
    fail ck "corrupt merge kept %d of 24 apps" (List.length results);
  (* A withheld shard is an explicit partial merge (exit 4). *)
  merge ~expect:4 "partial"
    (jflags other @ cflags other
    @ [ "--expect-shards"; string_of_int shards; "--report-out";
        p "partial.json" ]);
  let _, mm = merged_envelope (p "partial.json") in
  if mm.Merge.mm_missing_shards <> [ victim ] then
    fail ck "partial merge does not list exactly shard %d as missing" victim;
  if mm.Merge.mm_missing_apps = [] then
    fail ck "partial merge lists no missing apps"

(* ------------------------------------------------------------------ *)
(* fault: the environment fault matrix                                 *)
(* ------------------------------------------------------------------ *)

(* Over a --gen corpus: small uniform apps whose longest silent phase
   sits far under the 1 s --hang-timeout, so the watchdog assertions are
   about the injected wedge, never a legitimately slow app. *)
let fault ck =
  let p = path ck in
  let gen = [ "--gen"; "16"; "--gen-seed"; "1" ] in
  let audit ~expect ~needle label ?(cache = []) journal msg =
    expect_text ck ~needle
      (run ck ~expect label
         ([ "stats"; "--verify"; "--journal"; journal ] @ cache))
      msg
  in
  let clean_cache = [ "--cache-dir"; p "cache" ] in
  (* 1: a clean run passes the integrity audit. *)
  ignore
    (run ck ~expect:0 "clean"
       ([ "--all"; "--jobs"; "2"; "--journal"; p "clean.jsonl";
          "--report-out"; p "clean.json" ]
       @ clean_cache @ gen));
  audit ~expect:0 ~needle:"all artifacts verified clean" "clean-verify"
    ~cache:clean_cache (p "clean.jsonl")
    "clean audit did not report a clean bill of health";
  let clean = apps ck (p "clean.json") in
  (* 2: a worker spinning without heartbeats is caught twice by a 1 s
     watchdog (requeue, then quarantine as hung@PHASE), and every other
     app's entry stays the clean run's. *)
  let victim = "gen0005" and timeout = 1.0 in
  expect_text ck ~needle:("quarantined: " ^ victim)
    (run ck ~expect:2 "hang"
       ([
          "--all"; "--jobs"; "2"; "--hang-timeout"; string_of_float timeout;
          "--inject"; "worker.spin:" ^ victim; "--journal"; p "hang.jsonl";
          "--report-out"; p "hang.json";
        ]
       @ gen))
    "hung app missing from the quarantine list";
  iter_apps ck ~what:"hang report"
    (fun c (h : Runner.app_result) ->
      match h.Runner.ar_crash with
      | _ when h.Runner.ar_app <> victim ->
          if c <> h then
            fail ck "the watchdog changed %s's envelope entry" h.Runner.ar_app
      | Some cr when has_prefix ~prefix:"hung@" cr.Barrier.cr_phase -> ()
      | _ -> fail ck "%s is not quarantined under a hung@ phase" victim)
    clean (apps ck (p "hang.json"));
  (* Detection latency from the journal's own stamps: requeue and
     quarantine each land within 2x the timeout, so their gap does too. *)
  let events =
    match Journal.read_lenient ~path:(p "hang.jsonl") with
    | Ok (_, events, _) -> events
    | Error msg ->
        fail ck "%s" msg;
        []
  in
  let stamps pick =
    List.filter_map (fun (t, ev) -> if pick ev then Some t else None) events
  in
  let hung = has_prefix ~prefix:"hung@" in
  (match
     ( stamps (function Journal.Retried r -> hung r.ev_reason | _ -> false),
       stamps (function Journal.Crashed c -> hung c.ev_phase | _ -> false) )
   with
  | [ retried ], [ crashed ] ->
      if crashed -. retried > 2.0 *. timeout then
        fail ck "watchdog took %.2fs between requeue and quarantine"
          (crashed -. retried)
  | retried, crashed ->
      fail ck "expected one hung@ Retried and one hung@ Crashed record, \
               found %d and %d"
        (List.length retried) (List.length crashed));
  (* 3: a torn record mid-journal (the injected kill makes later appends
     glue onto the torn half).  The resume drops and reports it and
     recovers the app without trusting the damaged line: only the
     cached/attempts bookkeeping may differ from the clean run.  The
     audit keeps flagging the scar. *)
  let torn =
    [ "--all"; "--jobs"; "1"; "--journal"; p "torn.jsonl"; "--cache-dir";
      p "torn-cache" ]
    @ gen
  in
  ignore
    (run ck ~expect:99 "torn"
       (torn @ [ "--inject"; "journal.append@3:torn"; "--inject";
                 "pipeline.interpretation@4:kill" ]));
  let out =
    run ck ~expect:0 "resumed"
      (torn @ [ "--resume"; "--report-out"; p "resumed.json" ])
  in
  expect_text ck ~needle:"[resumed]" out
    "resume restored nothing despite a mostly-intact journal";
  expect_text ck ~needle:"dropped corrupt journal record" out
    "resume never reported the corrupt record it dropped";
  let aside (a : Runner.app_result) =
    { a with Runner.ar_cached = false; ar_attempts = 0 }
  in
  iter_apps ck ~what:"resumed report"
    (fun c r ->
      if aside c <> aside r then
        fail ck "resume over a torn journal changed %s's analysis results"
          r.Runner.ar_app)
    clean (apps ck (p "resumed.json"));
  audit ~expect:3 ~needle:"CORRUPT" "torn-verify" (p "torn.jsonl")
    "the audit passed a journal with a torn mid-file record";
  (* 4: a bit flipped in one cache entry's payload (past the "%EXTR1
     <md5>" seal line) and in another's "%EXTR1 " magic, which leaves it
     no seal at all: the audit flags both, a warm run misses and
     re-stores both, and the cache audits clean afterwards. *)
  let flip_at i name =
    let entry = Filename.concat (p "cache") name in
    let b = Bytes.of_string (read_file entry) in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
    Out_channel.with_open_bin entry (fun oc -> Out_channel.output_bytes oc b)
  in
  let unsealed =
    match
      List.sort compare
        (List.filter
           (fun f -> Filename.check_suffix f ".json")
           (Array.to_list (Sys.readdir (p "cache"))))
    with
    | payload :: magic :: _ ->
        flip_at 50 payload;
        flip_at 3 magic;
        magic
    | _ -> failwith "clean run left fewer than two cache entries"
  in
  let out =
    run ck ~expect:3 "corrupt-verify"
      ([ "stats"; "--verify"; "--journal"; p "clean.jsonl" ] @ clean_cache)
  in
  expect_text ck ~needle:("CORRUPT " ^ unsealed) out
    "the audit passed a cache entry with a flipped magic byte";
  expect_text ck ~needle:"integrity violations found: 2" out
    "the audit did not flag both damaged cache entries";
  ignore
    (run ck ~expect:0 "healed"
       ([ "--all"; "--jobs"; "1"; "--report-out"; p "healed.json";
          "--metrics-out"; p "healed-metrics.json" ]
       @ clean_cache @ gen));
  let ss = samples ck (p "healed-metrics.json") in
  if count ss "cache.corrupt" < 2 then
    fail ck "healing run counted %d of the 2 corrupt entries (cache.corrupt)"
      (count ss "cache.corrupt");
  if count ss "cache.misses" < 2 then
    fail ck "healing run: the corrupt entries did not miss";
  audit ~expect:0 ~needle:"all artifacts verified clean" "healed-verify"
    ~cache:clean_cache (p "clean.jsonl")
    "cache did not heal: audit still failing after the warm run";
  (* 5: ENOSPC on the report write: exit 1, no report, no orphaned
     temp. *)
  expect_text ck ~needle:"cannot write output"
    (run ck ~expect:1 "enospc"
       ([ "--all"; "--jobs"; "1"; "--inject"; "export.write:enospc";
          "--report-out"; p "enospc.json" ]
       @ clean_cache @ gen))
    "injected ENOSPC produced no write error";
  if Sys.file_exists (p "enospc.json") then
    fail ck "a report file exists despite the failed write";
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".tmp" then
        fail ck "orphaned temp file left behind by the failed write: %s" f)
    (Sys.readdir ck.ck_dir);
  (* 6: every worker ships half its first result frame and dies; the
     coordinator reaps each death, quarantines the in-flight app and
     finishes. *)
  expect_text ck ~needle:"quarantined:"
    (run ck ~expect:2 "frame"
       ([ "--all"; "--jobs"; "2"; "--inject"; "pool.frame" ] @ gen))
    "truncated frames produced no quarantine"

(* ------------------------------------------------------------------ *)
(* help: every command's manual renders                                *)
(* ------------------------------------------------------------------ *)

(* The long options each manual lists.  A flag added, removed or
   renamed changes these lists in review, and so does the hazard a
   removal opens: cmdliner takes any unambiguous prefix of a long
   option, so a removed name can start selecting another option. *)
let long_options =
  [
    "--all"; "--async-heuristic"; "--cache-dir"; "--deadline"; "--dot";
    "--explain"; "--gen"; "--gen-seed"; "--hang-timeout"; "--help";
    "--inject"; "--intents"; "--jobs"; "--journal"; "--json"; "--limple";
    "--list"; "--log-level"; "--max-depth"; "--max-steps"; "--metrics-out";
    "--obfuscate"; "--obfuscate-libraries"; "--profile"; "--profile-out";
    "--progress"; "--provenance-out"; "--report-out"; "--resume";
    "--retries"; "--scope"; "--shard"; "--trace-out"; "--validate-trace";
    "--version";
  ]

let stats_options =
  [
    "--cache-dir"; "--help"; "--journal"; "--log-level"; "--metrics";
    "--profile"; "--verify"; "--version";
  ]

let merge_options =
  [
    "--cache-dir"; "--cache-out"; "--expect-shards"; "--help"; "--journal";
    "--journal-out"; "--log-level"; "--metrics"; "--metrics-out";
    "--report-out"; "--version";
  ]

(* The option names of a plain manual's option lines ("       -j N,
   --jobs=N (absent=0)"), sorted. *)
let listed_options manual =
  String.split_on_char '\n' manual
  |> List.filter (has_prefix ~prefix:"       -")
  |> List.concat_map (fun line ->
         String.split_on_char ' ' (String.trim line))
  |> List.filter (has_prefix ~prefix:"--")
  |> List.map (fun word ->
         List.fold_left
           (fun w c -> List.hd (String.split_on_char c w))
           word [ '='; '['; ',' ])
  |> List.sort_uniq compare

(* cmdliner reports a doc-markup error in the manual text and still exits
   0, so the text is what gets checked.  Flag values the parser accepts
   but the run cannot honour, and arguments the chosen mode ignores, are
   refused with exit 1 before any work starts, so neither a summary
   footer, a report nor the app list is printed. *)
let help ck =
  let manual label args =
    let text = run ck ~expect:0 label (args @ [ "--help=plain" ]) in
    if contains ~needle:"cmdliner error" text then
      fail ck "%s --help prints a cmdliner error" label;
    text
  in
  let main = manual "extractocol" [] in
  List.iter
    (fun needle ->
      expect_text ck ~needle main ("--help does not show " ^ needle))
    [
      "hung@PHASE"; "SITE[@N][:MODE]"; "pipeline.interpretation@2:kill";
      "app.crash:APP"; "worker.exit:APP";
    ];
  List.iter
    (fun (label, text, pinned) ->
      let listed = listed_options text in
      if listed <> List.sort compare pinned then
        fail ck "%s --help=plain lists the long options %s, expected %s" label
          (String.concat " " listed)
          (String.concat " " (List.sort compare pinned)))
    [
      ("extractocol", main, long_options);
      ("stats", manual "stats" [ "stats" ], stats_options);
      ("merge", manual "merge" [ "merge" ], merge_options);
    ];
  let input = path ck "input.txt" in
  Out_channel.with_open_text input ignore;
  let ignored ~mode flags =
    List.map
      (fun (flag, args) -> (mode ^ flag, flag, mode :: flag :: args))
      flags
  in
  List.iter
    (fun (label, flag, args) ->
      let out = run ck ~expect:1 label args in
      expect_text ck ~needle:flag out
        (Printf.sprintf "the %s refusal does not name %s" label flag);
      if
        List.exists
          (fun needle -> contains ~needle out)
          [ " apps: "; " transactions, "; "available corpus apps" ]
      then fail ck "%s was refused only after the work ran" label)
    (ignored ~mode:"--all"
       [
         ("--intents", []); ("--scope", [ "com.x" ]); ("--json", []);
         ("--dot", []); ("--explain", []);
         ("--provenance-out", [ path ck "prov.json" ]); ("--obfuscate", []);
         ("--async-heuristic", [ "false" ]); ("--obfuscate-libraries", []);
         ("--limple", [ input ]); ("--validate-trace", [ input ]);
       ]
    @ ignored ~mode:"SharedDP"
        [
          ("--report-out", [ path ck "r.json" ]);
          ("--journal", [ path ck "j.jsonl" ]);
          ("--cache-dir", [ path ck "c" ]); ("--jobs", [ "2" ]);
          ("--gen", [ "3" ]); ("--shard", [ "1/2" ]); ("--retries", [ "1" ]);
          ("--progress", []); ("--hang-timeout", [ "1" ]); ("--resume", []);
          ("--gen-seed", [ "4" ]);
        ]
    @ ignored ~mode:"--list"
        [
          ("--json", []); ("--all", []); ("--jobs", [ "3" ]);
          ("--metrics-out", [ path ck "m.json" ]); ("--profile", []);
          ("--max-steps", [ "5" ]);
        ]
    @ [
      ( "all-app", "SharedDP",
        [ "--all"; "--gen"; "2"; "--jobs"; "1"; "SharedDP" ] );
      ("list-app", "SharedDP", [ "--list"; "SharedDP" ]);
      (* The old name of --validate-trace points at both names: taken
         for --trace-out, it would write a Chrome trace over the
         archive. *)
      ("trace", "--validate-trace", [ "SharedDP"; "--trace"; input ]);
      ("trace-out", "--trace-out", [ "SharedDP"; "--trace"; input ]);
      ("gen", "--gen", [ "--all"; "--gen=-1" ]);
      ( "hang-timeout", "--hang-timeout",
        [ "--all"; "--jobs"; "2"; "--gen"; "4"; "--hang-timeout=0" ] );
      ("jobs", "--jobs", [ "--all"; "--gen"; "4"; "--jobs=-3" ]);
      ( "journal", "--journal",
        [ "--all"; "--gen"; "3"; "--journal"; path ck "missing/j.jsonl" ] );
      ( "expect-shards", "--expect-shards",
        [ "merge"; "--expect-shards=-2"; "--journal"; "none" ] );
      ( "expect-shards-0", "--expect-shards",
        [ "merge"; "--expect-shards=0"; "--journal"; "none" ] );
      ("deadline", "--deadline", [ "Diode"; "--deadline=-1" ]);
      ("deadline-0", "--deadline", [ "--all"; "--gen"; "4"; "--deadline=0" ]);
      ( "deadline-nan", "--deadline",
        [ "--all"; "--gen"; "4"; "--deadline=nan" ] );
      ("max-steps", "--max-steps", [ "--all"; "--gen"; "4"; "--max-steps=-1" ]);
      ("max-depth", "--max-depth", [ "Diode"; "--max-depth=-3" ]);
      ("retries", "--retries", [ "--all"; "--gen"; "4"; "--retries=-2" ]);
      ("explain", "--explain", [ "SharedDP"; "--explain=-5" ]);
    ]);
  List.iter
    (fun file ->
      if Sys.file_exists (path ck file) then
        fail ck "a refused run still wrote %s" file)
    [ "r.json"; "m.json" ];
  if read_file input <> "" then
    fail ck "a refused --trace wrote over its archive %s" input;
  (* A removed flag is unknown to the parser, not a prefix of another:
     merge reads its configuration off the journals. *)
  ignore (run ck ~expect:124 "hotspots" [ "SharedDP"; "--hotspots" ]);
  List.iter
    (fun (flag, value) ->
      ignore
        (run ck ~expect:124 ("merge" ^ flag)
           [ "merge"; flag; value; "--journal"; "none" ]))
    [
      ("--max-steps", "5"); ("--max-depth", "3"); ("--deadline", "1");
      ("--retries", "1"); ("--gen", "3"); ("--gen-seed", "4");
    ];
  (* A sequential run has no watchdog: it warns and runs, since a shard
     may hold a single app. *)
  expect_text ck ~needle:"--hang-timeout"
    (run ck ~expect:0 "hang-timeout-seq"
       [ "--all"; "--gen"; "4"; "--jobs"; "1"; "--hang-timeout"; "0.001" ])
    "a sequential --hang-timeout run does not warn that no watchdog runs"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let scenarios =
  [
    ("metrics", metrics); ("explain", explain); ("resume", resume);
    ("pool", pool); ("trace", trace); ("profile", profile); ("shard", shard);
    ("fault", fault); ("help", help);
  ]

let usage () =
  Fmt.epr "usage: e2e_check SCENARIO... EXTRACTOCOL_BINARY@.  SCENARIO: all%a@."
    Fmt.(list ~sep:nop (any " | " ++ string))
    (List.map fst scenarios);
  exit 2

let () =
  Logs.set_level (Some Logs.Error);
  let names, exe =
    match List.rev (List.tl (Array.to_list Sys.argv)) with
    | exe :: (_ :: _ as names) -> (List.rev names, exe)
    | _ -> usage ()
  in
  let names =
    List.concat_map
      (fun n -> if n = "all" then List.map fst scenarios else [ n ])
      names
  in
  if List.exists (fun n -> not (List.mem_assoc n scenarios)) names then
    usage ();
  (* Dune passes the binary as a relative name; qualify it so the shell
     execs it rather than searching PATH. *)
  let exe =
    if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe
    else exe
  in
  root :=
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "e2e_check.%d" (Unix.getpid ()));
  Sys.mkdir !root 0o755;
  Sys.mkdir (shared_dir ()) 0o755;
  let failed =
    List.filter
      (fun name ->
        let dir = Filename.concat !root name in
        let ck =
          { ck_name = name; ck_exe = exe; ck_dir = dir; ck_failures = 0 }
        in
        Sys.mkdir dir 0o755;
        (try (List.assoc name scenarios) ck
         with e -> fail ck "aborted: %s" (Printexc.to_string e));
        if ck.ck_failures > 0 then
          Fmt.epr "%s: %d failure(s)@." name ck.ck_failures
        else Fmt.pr "%s: ok@." name;
        ck.ck_failures > 0)
      names
  in
  if failed = [] then remove_tree !root
  else begin
    Fmt.epr "e2e_check: intermediate state kept in %s@." !root;
    exit 1
  end
