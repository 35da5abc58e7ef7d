(* Durable corpus runner: journaled checkpoint/resume, degrade-and-retry
   ladder, and content-addressed result caching around the per-app fault
   barrier.  The CLI's --all mode is a thin shell over [run]; the logic
   lives here so the exit-code contract, quarantine, resume and caching
   are unit-testable in-process. *)

module Pipeline = Extr_extractocol.Pipeline
module Report = Extr_extractocol.Report
module Corpus = Extr_corpus.Corpus
module Spec = Extr_corpus.Spec
module Resilience = Extr_resilience.Resilience
module Retry = Extr_resilience.Retry
module Journal = Extr_resilience.Journal
module Fault = Extr_resilience.Fault
module Barrier = Resilience.Barrier
module Store = Extr_store.Store
module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics
module Span = Extr_telemetry.Span
module Profile = Extr_telemetry.Profile
module Json = Extr_httpmodel.Json

let src = Logs.Src.create "extractocol.runner" ~doc:"Durable corpus runner"

module Log = (val Logs.src_log src : Logs.LOG)

(* Short-circuit counters: how much of the corpus never reached the
   pipeline at all.  Coordinator-side, so they are exact under --jobs N
   (workers count their own cache probes in the shipped deltas; these
   count resolved apps). *)
let m_cache_hits =
  Metrics.counter ~help:"apps short-circuited by a result-cache hit"
    "runner.cache.hits"

let m_restored =
  Metrics.counter ~help:"apps restored from the journal on --resume"
    "runner.resume.restored"

let m_journal_dropped =
  Metrics.counter
    ~help:"corrupt journal records dropped (and re-run) on --resume"
    "journal.records.dropped"

let m_cache_write_failures =
  Metrics.counter ~help:"cache entries a failed write left out"
    "cache.write_failures"

type options = {
  ro_pipeline : Pipeline.options;
  ro_policy : Retry.policy;
  ro_journal : string option;
  ro_resume : bool;
  ro_cache_dir : string option;
  ro_sleep : Clock.sleep;
  ro_jobs : int;
  ro_shard : (int * int) option;
  ro_corpus_tag : string option;
  ro_hang_timeout : float option;  (* pool watchdog; None = off *)
}

let default_options =
  {
    ro_pipeline = Pipeline.default_options;
    ro_policy = Retry.default_policy;
    ro_journal = None;
    ro_resume = false;
    ro_cache_dir = None;
    ro_sleep = Clock.sleep_wall;
    ro_jobs = 1;
    ro_shard = None;
    ro_corpus_tag = None;
    ro_hang_timeout = None;
  }

(* Everything a cached result's validity depends on.  The analysis
   version is folded into the cache key by Store.key as well; repeating
   it here lets the journal header refuse a --resume across a version
   bump even when no cache is configured.  ro_jobs is deliberately NOT
   part of the fingerprint: parallelism never changes a result, so a
   run journaled at --jobs 4 must resume cleanly at --jobs 1 and vice
   versa.  ro_shard is likewise excluded — shard K/N computes the same
   results the unsharded run would, so its cache entries must carry the
   same keys for merge to union them — but the corpus tag ([--gen]) IS
   included: a generated corpus must not resume a Table-1 journal. *)
let config_fingerprint (o : options) =
  Printf.sprintf "%s;%s;v%d%s"
    (Pipeline.options_fingerprint o.ro_pipeline)
    (Retry.fingerprint o.ro_policy)
    Store.analysis_version
    (match o.ro_corpus_tag with None -> "" | Some t -> ";" ^ t)

(* The [--gen COUNT --gen-seed SEED] corpus' tag, and the corpus a
   configuration fingerprint names: the generated one its trailing tag
   describes, or the built-in one.  Only the exact text [corpus_tag]
   writes counts as a tag. *)
let corpus_tag ~seed ~count = Printf.sprintf "gen=%d:%d" seed count

let corpus_of_fingerprint config =
  let tag = List.hd (List.rev (String.split_on_char ';' config)) in
  match Scanf.sscanf_opt tag "gen=%d:%d%!" (fun seed count -> (seed, count)) with
  | Some (seed, count) when corpus_tag ~seed ~count = tag ->
      Corpus.generated ~seed ~count
  | Some _ | None -> Corpus.builtin ()

(* The journal (and shard envelope) identity adds which slice of the
   corpus this run covers: a shard must only resume its own journal, and
   merge reads the suffix back to know which shards it has seen.  The
   suffix is syntactic — [Merge.strip_shard] removes it to recover the
   base fingerprint that cache keys and the merged envelope use. *)
let journal_fingerprint (o : options) =
  config_fingerprint o
  ^
  match o.ro_shard with
  | None -> ""
  | Some (k, n) -> Printf.sprintf ";shard=%d/%d" k n

(* Deterministic shard assignment, 0-based.  Entries are partitioned by
   a digest of the app *name* — a proxy for the Store.key cache key that
   does not require materializing the APK: namesake corpus entries share
   one spec, hence one APK and one cache key, and hashing the name keeps
   them on one shard, so the later duplicate is an intra-shard cache hit
   exactly as in the unsharded run (its "#N" identity and cached flag
   survive sharding byte-for-byte). *)
let shard_index ~shards name =
  let d = Digest.string name in
  let b i = Char.code d.[i] in
  ((b 0 lsl 22) lxor (b 1 lsl 14) lxor (b 2 lsl 6) lxor b 3) mod max 1 shards

(* Corpus entries are journaled under a unique id: an app name that
   appears twice (a case study that is also a Table 1 row) gets "#2",
   "#3"... suffixes, or one entry's journal record would be replayed for
   every namesake on resume.  Always computed on the FULL corpus — shard
   filtering happens after, so an entry's identity is independent of
   which shard runs it. *)
let identify entries =
  let seen = Hashtbl.create 41 in
  List.map
    (fun (e : Corpus.entry) ->
      let name = e.Corpus.c_app.Spec.a_name in
      let n =
        (match Hashtbl.find_opt seen name with Some n -> n | None -> 0) + 1
      in
      Hashtbl.replace seen name n;
      ((if n = 1 then name else Printf.sprintf "%s#%d" name n), e))
    entries

type status = Ok | Degraded | Quarantined

let status_name = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Quarantined -> "quarantined"

let status_of_name = function
  | "ok" -> Some Ok
  | "degraded" -> Some Degraded
  | "quarantined" -> Some Quarantined
  | _ -> None

type app_result = {
  ar_app : string;
  ar_status : status;
  ar_cached : bool;
  ar_resumed : bool;
  ar_attempts : int;
  ar_txs : int;
  ar_degradations : Resilience.Degrade.degradation list;
  ar_elapsed_s : float;
  ar_crash : Barrier.crash option;
  ar_report_json : string option;
}

type run = {
  rn_results : app_result list;
  rn_interrupted : bool;
  rn_quarantined : string list;
  rn_worker_spans : (int * Span.span list) list;
}

(* The --all exit-code contract (documented in the man page). *)
let exit_code r =
  if r.rn_interrupted then 130
  else if r.rn_quarantined <> [] then 2
  else if List.exists (fun a -> a.ar_status = Degraded) r.rn_results then 3
  else 0

(* Status, transaction count and degradation list of a cached
   deterministic report, read back without trusting anything beyond its
   shape.  [None] means the entry is not a report we recognize —
   callers treat that as a miss.  Recovering the degradations matters:
   a cache-hit or resumed Degraded app must report the same reasons the
   cold run reported, or warm and cold summary tables disagree.
   Unrecognized degradation elements are dropped, not fatal. *)
let inspect_report_json data =
  match Json.of_string_opt data with
  | Some (Json.Obj _ as j) -> (
      match
        (Json.list_member "degradations" j, Json.list_member "transactions" j)
      with
      | Some ds, Some txs ->
          Some
            ( (if ds <> [] then Degraded else Ok),
              List.length txs,
              List.filter_map Report.degradation_of_json ds )
      | _ -> None)
  | Some _ | None -> None

(* A crash known only by its phase and message (a worker death, or a
   journal or envelope record read back): it has no backtrace. *)
let crash_record id ~phase ~exn =
  { Barrier.cr_app = id; cr_phase = phase; cr_exn = exn; cr_backtrace = "" }

let crashed id (crash : Barrier.crash) =
  Journal.Crashed
    { ev_app = id; ev_phase = crash.Barrier.cr_phase; ev_exn = crash.cr_exn }

(* The result an app's journal outcome records: a quarantined app
   replays its last crash, an ok or degraded one gets its report from
   [find] (by the record's cache key) and the degradations in it.  An
   app with no Finished record, or one whose status no writer produces,
   has none. *)
let restore ~find (o : Journal.outcome) =
  match o.Journal.oc_finished with
  | Some (_, Journal.Finished f) ->
      Option.map
        (fun status ->
          let crash, report =
            match status with
            | Quarantined ->
                let phase, exn =
                  match o.Journal.oc_crashed with
                  | Some (_, Journal.Crashed c) -> (c.ev_phase, c.ev_exn)
                  | _ -> ("?", "crash record missing from journal")
                in
                (Some (crash_record o.Journal.oc_app ~phase ~exn), None)
            | Ok | Degraded -> (None, find f.ev_key)
          in
          {
            ar_app = o.Journal.oc_app;
            ar_status = status;
            (* The journal's cached flag, not "true": a restored result
               must serialize exactly like the run that journaled it. *)
            ar_cached = f.ev_cached;
            ar_resumed = false;
            ar_attempts = f.ev_attempts;
            ar_txs = f.ev_txs;
            ar_degradations =
              (match Option.bind report inspect_report_json with
              | Some (_, _, ds) -> ds
              | None -> []);
            ar_elapsed_s = 0.0;
            ar_crash = crash;
            ar_report_json = report;
          })
        (status_of_name f.ev_status)
  | _ -> None

(* Store a freshly analyzed report's cache entry, at both widths after
   the commit that covers its Finished record and before the result is
   published.  Journal before store: a kill between the two re-runs the
   app on resume (benign); the reverse order would let a resumed run
   find a cache entry the journal never finished, and report it as
   cached when the uninterrupted run would not have.  An entry only
   saves work: a write that fails (a full disk) loses the entry, which
   [--resume] and the next run recompute, and the run goes on.
   [Store.store] itself still raises, so [merge --cache-out] can refuse
   an output it could not write. *)
let store_fresh cache (r, key_s) =
  match (cache, r.ar_report_json, Store.key_of_string key_s) with
  | Some c, Some data, Some key when not r.ar_cached -> (
      try Store.store c key data
      with Sys_error msg ->
        Metrics.incr m_cache_write_failures;
        Log.warn (fun m -> m "%s: cache entry not written (%s)" r.ar_app msg))
  | _ -> ()

(* Journal a quarantined app's Finished record and return its result:
   no report, [crash] is the failure that quarantined it. *)
let quarantine ~jot id key_s attempts crash =
  jot
    (Journal.Finished
       {
         ev_app = id;
         ev_key = key_s;
         ev_status = status_name Quarantined;
         ev_cached = false;
         ev_attempts = attempts;
         ev_txs = 0;
       });
  {
    ar_app = id;
    ar_status = Quarantined;
    ar_cached = false;
    ar_resumed = false;
    ar_attempts = attempts;
    ar_txs = 0;
    ar_degradations = [];
    ar_elapsed_s = 0.0;
    ar_crash = Some crash;
    ar_report_json = None;
  }

(* Analyze one corpus entry end to end: materialize the app (behind the
   fault barrier — a malformed synthetic spec must quarantine this app,
   not abort the corpus), consult the cache, drive the retry ladder and
   journal every transition.  [run] calls this in-process for
   sequential runs and inside a forked worker under --jobs N, so its
   one shared side effect goes through the caller-owned [jot], which
   writes a record without syncing it.  Returns the result plus the
   cache key string: the caller commits the records, then stores the
   entry ([store_fresh]) and publishes the result, the
   crash-consistency order (journal first, cache second) that resume
   relies on. *)
let run_app ~jot ~cache (o : options) ~config id (e : Corpus.entry) :
    app_result * string =
  match
    Barrier.protect ~app:id (fun () ->
        Barrier.set_phase "codegen";
        let apk = Lazy.force e.Corpus.c_apk in
        (apk, Store.key ~config apk))
  with
  | Result.Error crash ->
      jot (crashed id crash);
      (quarantine ~jot id "" 1 crash, "")
  | Result.Ok (apk, key) -> (
      let key_s = Store.key_to_string key in
      (* An injected app.crash must actually crash: it simulates an app
         the pipeline dies on, and a cached result would dodge the
         simulation (and with it the quarantine path under test). *)
      let injected = Fault.fire ~arg:id "app.crash" <> None in
      let cache_hit =
        match cache with
        | _ when injected -> None
        | None -> None
        | Some c -> (
            match Store.find c key with
            | Some data -> (
                match inspect_report_json data with
                | Some (status, txs, degs) -> Some (data, status, txs, degs)
                | None -> None)
            | None -> None)
      in
      match cache_hit with
      | Some (data, status, txs, degradations) ->
          jot
            (Journal.Finished
               {
                 ev_app = id;
                 ev_key = key_s;
                 ev_status = status_name status;
                 ev_cached = true;
                 ev_attempts = 0;
                 ev_txs = txs;
               });
          ( {
              ar_app = id;
              ar_status = status;
              ar_cached = true;
              ar_resumed = false;
              ar_attempts = 0;
              ar_txs = txs;
              ar_degradations = degradations;
              ar_elapsed_s = 0.0;
              ar_crash = None;
              ar_report_json = Some data;
            },
            key_s )
      | None -> (
          jot (Journal.Started { ev_app = id; ev_key = key_s; ev_attempt = 1 });
          let outcome =
            Retry.run ~sleep:o.ro_sleep
              ~on_retry:(fun ~attempt ~reason ->
                jot
                  (Journal.Retried
                     { ev_app = id; ev_attempt = attempt; ev_reason = reason }))
              o.ro_policy ~limits:o.ro_pipeline.Pipeline.op_limits
              ~attempt:(fun ~attempt:_ limits ->
                let opts = { o.ro_pipeline with Pipeline.op_limits = limits } in
                match
                  Barrier.protect ~app:id (fun () ->
                      if injected then failwith "injected crash (app.crash)";
                      Pipeline.analyze ~options:opts apk)
                with
                | Result.Ok a ->
                    let r = a.Pipeline.an_report in
                    if r.Report.rp_degradations = [] then
                      Result.Ok (Retry.Clean a)
                    else Result.Ok (Retry.Degraded a)
                | Result.Error crash ->
                    jot (crashed id crash);
                    Result.Error crash)
          in
          let finish status (a : Pipeline.analysis) attempts =
            let report = a.Pipeline.an_report in
            let data =
              Json.to_string (Report.to_json ~deterministic:true report)
            in
            jot
              (Journal.Finished
                 {
                   ev_app = id;
                   ev_key = key_s;
                   ev_status = status_name status;
                   ev_cached = false;
                   ev_attempts = attempts;
                   ev_txs = List.length report.Report.rp_transactions;
                 });
            {
              ar_app = id;
              ar_status = status;
              ar_cached = false;
              ar_resumed = false;
              ar_attempts = attempts;
              ar_txs = List.length report.Report.rp_transactions;
              ar_degradations = report.Report.rp_degradations;
              ar_elapsed_s = report.Report.rp_elapsed_s;
              ar_crash = None;
              ar_report_json = Some data;
            }
          in
          match outcome with
          | Retry.Succeeded (a, n) -> (finish Ok a n, key_s)
          | Retry.Still_degraded (a, n) -> (finish Degraded a n, key_s)
          | Retry.Quarantined (crash, n) ->
              (quarantine ~jot id key_s n crash, key_s)))

(* One pool task's telemetry: what the worker's metrics registry,
   tracer and method profiler recorded between the task's start reset
   and its end. *)
type delta = {
  d_pid : int;
  d_samples : Metrics.sample list;
  d_spans : Span.span list;
  d_profile : Profile.snapshot;
}

(* Parallel corpus execution over the fork pool.  The coordinator owns
   the journal (workers [emit] events over their pipe), the cache writes
   (workers send the serialized report back) and the telemetry
   recorders.  It group-commits: [jot] writes each event to the journal
   as it is read, and the pool calls [commit] — one fsync, then the
   observers — before it hands over the results the commit covers, so
   every cache write and published result follows the fsync of its
   Finished record, the order resume relies on.  A worker resets the
   recorders it inherited when a task starts and snapshots them into
   one [delta] when it ends; the delta rides with the task's result.
   The coordinator merges the metrics and profile rows into its own
   recorders and buckets the spans by worker pid — one trace lane per
   worker — for the CLI's merged trace export.  A worker death ships
   no delta.

   Results are published in corpus order no matter when they complete:
   each finished slot waits until every earlier slot is filled, so
   [on_result] rows, [rn_results] and the report envelope are
   byte-identical to a --jobs 1 run.  On interrupt only the contiguous
   emitted prefix is returned — the same partial-table shape the
   sequential path produces. *)
let run_pooled ~jot ~commit ~try_restore ~cache ~config ~on_result ~on_state
    (o : options) (entries : (string * Corpus.entry) array) :
    app_result list * bool * (int * Span.span list) list =
  let n = Array.length entries in
  let ids = Array.map fst entries in
  (* A worker takes each task's entry out of its own copy of this array:
     the APK the entry's lazy forced must not stay reachable once the
     task is done, or a worker's heap grows with every app it runs.  A
     worker never runs a task twice; a requeued task runs in a fresh
     fork of the coordinator, whose copy is whole. *)
  let untaken = Array.map (fun (_, e) -> Some e) entries in
  let slots = Array.make n None in
  let emitted = ref 0 in
  let acc = ref [] in
  let emit_ready () =
    while
      !emitted < n
      &&
      match slots.(!emitted) with
      | Some r ->
          acc := r :: !acc;
          on_result r;
          true
      | None -> false
    do
      incr emitted
    done
  in
  (* Resume-restored apps resolve in the coordinator; only the rest are
     dispatched to workers. *)
  let tasks = ref [] in
  Array.iteri
    (fun i (id, _) ->
      match try_restore id with
      | Some r -> slots.(i) <- Some r
      | None -> tasks := i :: !tasks)
    entries;
  let tasks = List.rev !tasks in
  emit_ready ();
  (* Corpus entries that share an app name share a cache key (the
     fingerprint digests the same APK bytes), so sequentially the later
     duplicate is always an intra-run cache hit.  Racing them in
     parallel would make cached/attempts nondeterministic; serialize
     each duplicate behind the previous entry of the same name. *)
  let dep = Array.make n [] in
  let last_by_name = Hashtbl.create 41 in
  Array.iteri
    (fun i (_, (e : Corpus.entry)) ->
      let name = e.Corpus.c_app.Spec.a_name in
      (match Hashtbl.find_opt last_by_name name with
      | Some j -> dep.(i) <- [ j ]
      | None -> ());
      Hashtbl.replace last_by_name name i)
    entries;
  (* Shipped spans, bucketed by worker pid: one trace lane per worker
     process.  Batches arrive in completion order and are kept as a
     newest-first list of chunks, flattened once at the end (appending
     each batch would re-copy the whole lane per task); the exporter
     re-sorts each lane by begin time. *)
  let worker_spans : (int, Span.span list list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let fold_delta d =
    Metrics.merge_samples Metrics.default d.d_samples;
    Profile.merge Profile.default d.d_profile;
    if d.d_spans <> [] then
      match Hashtbl.find_opt worker_spans d.d_pid with
      | Some l -> l := d.d_spans :: !l
      | None -> Hashtbl.replace worker_spans d.d_pid (ref [ d.d_spans ])
  in
  let outcome =
    if tasks = [] then Pool.Completed
    else
      Pool.run
        ~deps:(fun i -> dep.(i))
        ~on_state
        ?hang_timeout:o.ro_hang_timeout
        ~on_hang:(fun ~task:i ~phase ->
          let id = ids.(i) in
          jot
            (Journal.Retried
               { ev_app = id; ev_attempt = 2; ev_reason = "hung@" ^ phase }))
        ~commit
        ~jobs:(min o.ro_jobs (List.length tasks))
        ~tasks
        ~worker:(fun ~emit ~beat i ->
          let id = ids.(i) in
          let e = Option.get untaken.(i) in
          untaken.(i) <- None;
          Barrier.set_observer (fun p -> beat ~phase:p);
          if Fault.fire ~arg:id "worker.exit" <> None then Unix._exit 86;
          (* Injected wedge: spin without heartbeats so the watchdog has
             something to catch.  The mode string targets one app. *)
          (match Fault.fire ~arg:id "worker.spin" with
          | Some _ ->
              Barrier.set_phase "spin";
              while true do
                Unix.sleepf 0.01
              done
          | None -> ());
          (* The recorders hold what the coordinator recorded before the
             fork, or the previous task's delta; reset so the snapshot
             below is exactly this task's. *)
          Metrics.reset Metrics.default;
          Span.reset Span.default;
          Profile.reset Profile.default;
          let r, key_s = run_app ~jot:emit ~cache o ~config id e in
          ( r,
            key_s,
            Some
              {
                d_pid = Unix.getpid ();
                d_samples = Metrics.snapshot Metrics.default;
                d_spans = Span.spans Span.default;
                d_profile = Profile.snapshot Profile.default;
              } ))
        ~on_event:jot
        ~on_death:(fun ~task:i ~cause ->
          let id = ids.(i) in
          let phase, reason =
            match cause with
            | Pool.Died reason -> ("worker", reason)
            | Pool.Hung { hd_phase; hd_silent_s } ->
                ( "hung@" ^ hd_phase,
                  Printf.sprintf "no heartbeat for %.1fs; killed by watchdog"
                    hd_silent_s )
          in
          let crash = crash_record id ~phase ~exn:reason in
          jot (crashed id crash);
          (quarantine ~jot id "" 1 crash, "", None))
        ~on_result:(fun i (r, key_s, delta) ->
          Option.iter fold_delta delta;
          store_fresh cache (r, key_s);
          slots.(i) <- Some r;
          emit_ready ())
        ()
  in
  (* A worker restarts its tracer's sequence numbers with every task;
     each lane is renumbered in arrival order, so it is one recording
     with unique numbers, which Span.stacked needs to find each span's
     children (without it, self times of a multi-task lane go
     negative). *)
  let lanes =
    Hashtbl.fold
      (fun pid l acc ->
        ( pid,
          List.mapi
            (fun i sp -> { sp with Span.sp_seq = i })
            (List.concat (List.rev !l)) )
        :: acc)
      worker_spans []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  (List.rev !acc, outcome = Pool.Interrupted, lanes)

let run ?(on_result = fun (_ : app_result) -> ())
    ?(on_journal = fun ~at:(_ : float) (_ : Journal.event) -> ())
    ?(on_state = fun ~busy:(_ : int) ~idle:(_ : int) ~pending:(_ : int) -> ())
    (o : options) (entries : Corpus.entry list) : (run, string) result =
  let config = config_fingerprint o in
  (* The journal header carries the shard identity on top of [config]:
     cache keys stay shard-independent (merge unions them), the journal
     does not (shard 2 must not resume shard 1's journal). *)
  let jconfig = journal_fingerprint o in
  (* [not (t > 0.)] also refuses nan: a watchdog that cannot tell
     silence from work would quarantine healthy apps. *)
  let options_ok =
    match (o.ro_shard, o.ro_hang_timeout) with
    | Some (k, n), _ when k < 1 || k > n ->
        Result.Error
          (Printf.sprintf "--shard %d/%d: K must be between 1 and N" k n)
    | _, Some t when not (t > 0.) ->
        Result.Error
          (Printf.sprintf "--hang-timeout %g: SECONDS must be positive" t)
    | _ -> Result.Ok ()
  in
  (* Open the cache first: a bad --cache-dir is a usage error, not
     something to discover halfway through the corpus. *)
  let cache =
    match options_ok with
    | Result.Error msg -> Result.Error msg
    | Result.Ok () -> (
        match o.ro_cache_dir with
        | None -> Result.Ok None
        | Some dir -> (
            try Result.Ok (Some (Store.open_ ~dir ()))
            with Sys_error msg ->
              Result.Error (Printf.sprintf "cache directory: %s" msg)))
  in
  (* The journal: fresh for a new run, replayed for --resume.  Resuming
     yields each journaled app's outcome. *)
  let journal =
    match (o.ro_resume, o.ro_journal) with
    | true, None -> Result.Error "--resume requires --journal PATH"
    | true, Some path -> (
        match Journal.load ~path ~config:jconfig () with
        | Result.Error msg -> Result.Error msg
        | Result.Ok (j, records, anomalies) ->
            (* Dropped records mean the affected apps simply re-run —
               resume degrades to recomputation, never trusts a corrupt
               artifact. *)
            List.iter
              (fun a ->
                Log.warn (fun m ->
                    m "%s: dropped corrupt journal record (%a)" path
                      Journal.pp_anomaly a))
              anomalies;
            if anomalies <> [] then
              Metrics.incr ~by:(List.length anomalies) m_journal_dropped;
            Result.Ok (Some j, Journal.outcomes records))
    | false, None -> Result.Ok (None, [])
    | false, Some path -> (
        (* An unwritable path is a usage error, like a bad --cache-dir. *)
        match Journal.create ~path ~config:jconfig () with
        | j -> Result.Ok (Some j, [])
        | exception Sys_error msg -> Result.Error ("--journal: " ^ msg))
  in
  match (cache, journal) with
  | Result.Error msg, _ | _, Result.Error msg -> Result.Error msg
  | Result.Ok cache, Result.Ok (journal, outcomes) ->
      (* Journal first, observer second — the progress display must
         never see an event the journal could still lose.  [write] hands
         an event to the journal and queues it with its write time (the
         journal's stamp, or the time it was seen when there is no
         journal); [commit] fsyncs once and then shows the observer
         every queued event in order.  A sequential run commits once
         per app, the pool once per window. *)
      let unpublished = Queue.create () in
      let write ev =
        let at =
          match journal with
          | Some j -> Journal.write j ev
          | None -> Clock.wall ()
        in
        Queue.push (at, ev) unpublished
      in
      let commit () =
        if not (Queue.is_empty unpublished) then begin
          Option.iter Journal.sync journal;
          while not (Queue.is_empty unpublished) do
            let at, ev = Queue.pop unpublished in
            on_journal ~at ev
          done
        end
      in
      let on_result r =
        if r.ar_cached then Metrics.incr m_cache_hits;
        if r.ar_resumed then Metrics.incr m_restored;
        on_result r
      in
      (* Restore an app the journal marked finished: quarantined apps
         replay their recorded crash; ok/degraded apps come back from
         the cache.  A cache miss (evicted entry, no --cache-dir) falls
         through to a fresh run — resume never produces a hole. *)
      let past = Hashtbl.create 64 in
      List.iter (fun oc -> Hashtbl.replace past oc.Journal.oc_app oc) outcomes;
      let find key =
        match (cache, Store.key_of_string key) with
        | Some c, Some k -> Store.find c k
        | _ -> None
      in
      let try_restore id =
        match Option.bind (Hashtbl.find_opt past id) (restore ~find) with
        | Some r when r.ar_status <> Quarantined && r.ar_report_json = None ->
            Log.warn (fun m ->
                m "%s finished in the journal but not in the cache; re-running"
                  id);
            None
        | r -> Option.map (fun r -> { r with ar_resumed = true }) r
      in
      (* Identify on the full corpus, then keep this shard's slice: "#N"
         identities are shard-independent, and namesakes co-locate (the
         partition hashes the shared name), so the merged result set is
         exactly the unsharded one. *)
      let identified =
        let all = identify entries in
        match o.ro_shard with
        | None -> all
        | Some (k, n) ->
            List.filter
              (fun ((_, e) : string * Corpus.entry) ->
                shard_index ~shards:n e.Corpus.c_app.Spec.a_name = k - 1)
              all
      in
      let pooled = o.ro_jobs > 1 && List.length identified > 1 in
      if o.ro_hang_timeout <> None && not pooled then
        Log.warn (fun m ->
            m "--hang-timeout: this run is sequential (one job or one app), \
               so no watchdog runs");
      let results, interrupted, worker_spans =
        Fun.protect ~finally:commit @@ fun () ->
        if pooled then
          run_pooled ~jot:write ~commit ~try_restore ~cache ~config ~on_result
            ~on_state o (Array.of_list identified)
        else begin
          let results = ref [] in
          let interrupted = ref false in
          (try
             List.iter
               (fun (id, (e : Corpus.entry)) ->
                 let res =
                   match try_restore id with
                   | Some restored -> restored
                   | None ->
                       let ((r, _) as fresh) =
                         run_app ~jot:write ~cache o ~config id e
                       in
                       commit ();
                       store_fresh cache fresh;
                       r
                 in
                 results := res :: !results;
                 on_result res)
               identified
           with Barrier.Interrupted ->
             (* Every record was synced before its observer saw it, and
                anything written but not yet committed is committed on
                the way out.  Return what completed so the caller can
                print the partial table. *)
             interrupted := true);
          (List.rev !results, !interrupted, [])
        end
      in
      Result.Ok
        {
          rn_results = results;
          rn_interrupted = interrupted;
          rn_worker_spans = worker_spans;
          rn_quarantined =
            List.filter_map
              (fun a -> if a.ar_status = Quarantined then Some a.ar_app else None)
              results;
        }

(* ------------------------------------------------------------------ *)
(* Corpus report envelope                                             *)
(* ------------------------------------------------------------------ *)

(* Built by hand so each app's deterministic report string is spliced in
   verbatim: round-tripping through the Json value model would reprint
   floats and break the byte-identity --resume guarantees.  [extra]
   members ([merge]'s missing_shards[] and friends) are spliced between
   the config and the apps as raw JSON values; an empty [extra] changes
   nothing, which is what keeps a clean merge byte-identical to the
   unsharded envelope. *)
let report_json ?(extra = []) ~config (r : run) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\"config\":\"%s\"" (Json.escape_string config));
  if r.rn_interrupted then Buffer.add_string buf ",\"interrupted\":true";
  List.iter
    (fun (k, raw) ->
      Buffer.add_string buf (Printf.sprintf ",\"%s\":" (Json.escape_string k));
      Buffer.add_string buf raw)
    extra;
  Buffer.add_string buf ",\"apps\":[";
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"app\":\"%s\",\"status\":\"%s\",\"cached\":%b,\"attempts\":%d"
           (Json.escape_string a.ar_app)
           (status_name a.ar_status)
           a.ar_cached a.ar_attempts);
      (match a.ar_crash with
      | Some c ->
          Buffer.add_string buf
            (Printf.sprintf ",\"crash\":{\"phase\":\"%s\",\"exn\":\"%s\"}"
               (Json.escape_string c.Barrier.cr_phase)
               (Json.escape_string c.Barrier.cr_exn))
      | None -> ());
      (match a.ar_report_json with
      | Some data ->
          Buffer.add_string buf ",\"report\":";
          Buffer.add_string buf data
      | None -> ());
      Buffer.add_char buf '}')
    r.rn_results;
  Buffer.add_string buf "]}";
  Buffer.contents buf

type envelope = {
  en_config : string;
  en_extra : (string * Json.t) list;
  en_run : run;
}

(* The envelope read back into the run [report_json] prints it from.
   Each app's report is re-printed by [Json.to_string], the printer that
   wrote it, so it comes back byte for byte; what the envelope does not
   carry (elapsed time, the resumed flag, backtraces, worker spans) comes
   back empty, and txs and degradations are re-read from the report. *)
let envelope_of_json contents =
  let app_of_json a =
    match
      ( Json.str_member "app" a,
        Option.bind (Json.str_member "status" a) status_of_name,
        Json.bool_member "cached" a,
        Json.int_member "attempts" a )
    with
    | Some ar_app, Some ar_status, Some ar_cached, Some ar_attempts ->
        let ar_report_json =
          Option.map Json.to_string (Json.member "report" a)
        in
        let ar_txs, ar_degradations =
          match Option.bind ar_report_json inspect_report_json with
          | Some (_, txs, ds) -> (txs, ds)
          | None -> (0, [])
        in
        let crash c =
          let field k = Option.value ~default:"" (Json.str_member k c) in
          crash_record ar_app ~phase:(field "phase") ~exn:(field "exn")
        in
        Some
          {
            ar_app;
            ar_status;
            ar_cached;
            ar_resumed = false;
            ar_attempts;
            ar_txs;
            ar_degradations;
            ar_elapsed_s = 0.0;
            ar_crash = Option.map crash (Json.member "crash" a);
            ar_report_json;
          }
    | _ -> None
  in
  match Json.of_string_opt contents with
  | Some (Json.Obj fields as j) -> (
      match (Json.str_member "config" j, Json.list_member "apps" j) with
      | Some en_config, Some apps ->
          let results = List.filter_map app_of_json apps in
          if List.length results <> List.length apps then
            Error "report envelope has a malformed apps[] entry"
          else
            let quarantined a =
              if a.ar_status = Quarantined then Some a.ar_app else None
            in
            let en_run =
              {
                rn_results = results;
                rn_interrupted = Json.bool_member "interrupted" j = Some true;
                rn_quarantined = List.filter_map quarantined results;
                rn_worker_spans = [];
              }
            in
            let own k = List.mem k [ "config"; "interrupted"; "apps" ] in
            let en_extra = List.filter (fun (k, _) -> not (own k)) fields in
            Result.Ok { en_config; en_extra; en_run }
      | _ -> Error "not a report envelope (config, apps[])")
  | _ -> Error "report envelope is not a JSON object"
