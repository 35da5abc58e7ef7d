(** Durable corpus runner: the engine behind [extractocol --all].

    Runs every corpus entry behind the fault barrier like the original
    batch mode, but each app's lifecycle is journaled ({!Extr_resilience.Journal}),
    driven up the degrade-and-retry ladder ({!Extr_resilience.Retry})
    and — when a cache directory is configured — served from or stored
    into the content-addressed result cache ({!Extr_store.Store}).  A
    killed run resumes from its journal; a resumed run's report JSON is
    byte-identical to what the uninterrupted run would have written,
    because cached reports are serialized deterministically and spliced
    back verbatim.

    The runner is a library (not CLI glue) so the exit-code contract,
    quarantine, resume and caching are unit-testable in-process. *)

module Pipeline = Extr_extractocol.Pipeline
module Corpus = Extr_corpus.Corpus
module Resilience = Extr_resilience.Resilience
module Retry = Extr_resilience.Retry
module Clock = Extr_telemetry.Clock
module Span = Extr_telemetry.Span
module Journal = Extr_resilience.Journal

type options = {
  ro_pipeline : Pipeline.options;
  ro_policy : Retry.policy;
  ro_journal : string option;  (** write-ahead journal path *)
  ro_resume : bool;  (** replay the journal, skip finished apps *)
  ro_cache_dir : string option;  (** content-addressed result cache *)
  ro_sleep : Clock.sleep;  (** retry backoff; injectable for tests *)
  ro_jobs : int;
      (** worker processes for the corpus ({!Pool}); [<= 1] runs
          sequentially in-process.  Not part of the configuration
          fingerprint: parallelism never changes results, so journals
          and caches are shared freely across jobs settings *)
  ro_shard : (int * int) option;
      (** [Some (k, n)]: run only the k-th of n deterministic corpus
          slices (1-based), partitioned by {!shard_index}.  Not part of
          {!config_fingerprint} — a shard computes exactly what the
          unsharded run would, so its cache entries carry the same keys
          and [merge] can union them — but it IS part of
          {!journal_fingerprint}: a shard only resumes its own journal *)
  ro_corpus_tag : string option;
      (** identity of a non-default corpus (the [--gen] generator's
          ["gen=SEED:COUNT"]); folded into {!config_fingerprint} so a
          generated-corpus journal or cache never mingles with the
          Table-1 corpus under the same pipeline options *)
  ro_hang_timeout : float option;
      (** arm the pool's hung-worker watchdog ({!Pool.run}): a busy
          worker silent longer than this many wall-clock seconds is
          SIGKILLed, its app requeued once, then quarantined under the
          [hung\@PHASE] taxonomy.  [None] (the default) disables the
          watchdog; a value that is not positive is refused by {!run}.
          Not part of the configuration fingerprint — like
          [ro_jobs], it changes scheduling, never results.  Pooled
          workers send phase heartbeats only while it is set *)
}

val default_options : options
(** Pipeline defaults, {!Retry.default_policy}, no journal, no cache,
    wall-clock backoff. *)

val config_fingerprint : options -> string
(** The configuration identity a result depends on: pipeline options,
    retry policy, {!Extr_store.Store.analysis_version} and the corpus
    tag.  Cache keys digest it; journals carry it (extended per
    {!journal_fingerprint}) in their header and [--resume] refuses a
    journal whose fingerprint differs. *)

val corpus_tag : seed:int -> count:int -> string
(** ["gen=SEED:COUNT"]: the [ro_corpus_tag] of the [--gen COUNT
    --gen-seed SEED] corpus, which {!config_fingerprint} appends. *)

val corpus_of_fingerprint : string -> Corpus.entry list
(** The corpus a {!config_fingerprint} names: [Corpus.generated ~seed
    ~count] when it ends in a {!corpus_tag}, else {!Corpus.builtin}.
    [merge] reads a shard set's corpus off its base fingerprint with
    it. *)

val journal_fingerprint : options -> string
(** {!config_fingerprint} plus a [";shard=K/N"] suffix when [ro_shard]
    is set: what the journal header and a shard run's envelope record.
    [merge] strips the suffix to recover the base fingerprint the
    merged envelope (and every cache key) uses. *)

val shard_index : shards:int -> string -> int
(** The 0-based shard owning an app name, for an [n]-way partition.  A
    digest of the {e name} is a faithful proxy for the [Store.key] cache
    key here: namesake corpus entries share one spec, hence one APK and
    one key, and name-hashing keeps them on one shard so the later
    ["#2"] duplicate stays an intra-shard cache hit exactly as in the
    unsharded run. *)

val identify : Corpus.entry list -> (string * Corpus.entry) list
(** The unique journal identities of a corpus, in corpus order: the app
    name, with ["#2"]-style suffixes for repeated names.  Always
    computed on the full corpus — [--shard] filters {e after} this, so
    identities are shard-independent ([merge] recomputes them to know
    the expected result set). *)

type status = Ok | Degraded | Quarantined

val status_name : status -> string
(** ["ok"], ["degraded"], ["quarantined"] — the journal/report strings. *)

val status_of_name : string -> status option
(** Inverse of {!status_name}; [None] for anything else. *)

val inspect_report_json :
  string -> (status * int * Resilience.Degrade.degradation list) option
(** Status, transaction count and degradation list of a serialized
    deterministic report, recovered without trusting anything beyond
    its shape — [None] when the string is not a report we recognize
    (callers treat that as a cache miss / corrupt artifact). *)

type app_result = {
  ar_app : string;
      (** unique corpus identity: the app name, with a ["#2"]-style
          suffix when the same name appears more than once (a case study
          that is also a Table 1 row) — journals key records by it *)
  ar_status : status;
  ar_cached : bool;  (** served from the result cache *)
  ar_resumed : bool;  (** skipped because the journal marked it finished *)
  ar_attempts : int;
  ar_txs : int;
  ar_degradations : Resilience.Degrade.degradation list;
      (** for cached/resumed results, recovered from the report JSON's
          [degradations[]], so warm and cold summaries agree *)
  ar_elapsed_s : float;  (** 0 for cached/resumed results *)
  ar_crash : Resilience.Barrier.crash option;  (** [Quarantined] only *)
  ar_report_json : string option;
      (** the deterministic report serialization, verbatim from the
          cache on a hit; [None] for quarantined apps *)
}

val restore :
  find:(string -> string option) -> Journal.outcome -> app_result option
(** The result an app's journal outcome ({!Journal.outcomes}) records:
    its last [Finished] record's status, cached flag, attempts and
    transaction count.  [None] when the outcome has no [Finished]
    record (the app is in flight) or its status is not one
    {!status_name} produces.  A quarantined app replays its last
    [Crashed] record, or [("?", "crash record missing from journal")]
    when the journal has none, and [find] is not called.  An ok or
    degraded app gets its report from [find] applied to the record's
    cache key, and its degradations are re-read from that report; when
    [find] returns [None] the result has no report.  [ar_resumed] is
    [false] and [ar_elapsed_s] is [0.].  [--resume] finds with
    {!Extr_store.Store.find} and re-runs an app whose report is
    missing; [merge] finds across its cache directories and keeps the
    app without a report. *)

type run = {
  rn_results : app_result list;  (** corpus order; partial if interrupted *)
  rn_interrupted : bool;  (** SIGINT/SIGTERM unwound the run *)
  rn_quarantined : string list;  (** apps excluded after repeated crashes *)
  rn_worker_spans : (int * Span.span list) list;
      (** spans shipped back by pool workers, one [(pid, spans)] lane
          per worker process in pid order, numbered ([sp_seq]) in
          arrival order; [[]] for sequential runs.
          Feed to {!Extr_telemetry.Export.chrome_trace_lanes} together
          with the coordinator's own tracer for the merged trace *)
}

val exit_code : run -> int
(** The [--all] contract: 130 if interrupted, 2 if any app was
    quarantined, 3 if any degraded, 0 otherwise. *)

val run :
  ?on_result:(app_result -> unit) ->
  ?on_journal:(at:float -> Journal.event -> unit) ->
  ?on_state:(busy:int -> idle:int -> pending:int -> unit) ->
  options ->
  Corpus.entry list ->
  (run, string) result
(** Run the corpus.  [on_result] fires after each app (the CLI prints
    its summary row live) — always in corpus order, even under
    [ro_jobs > 1], where completed-but-out-of-order results are held
    back until every earlier app has resolved, so reports stay
    byte-identical across jobs settings.  [Error] is a usage-level
    failure: an out-of-range [ro_shard] or a [ro_hang_timeout] that is
    not positive, a resume with no/invalid journal or a mismatched
    configuration fingerprint, or an unusable cache/journal path (the
    message names [--journal] for a journal that cannot be created).
    A cache entry that fails to write is not an error: the run warns,
    counts it in ["cache.write_failures"] and goes on without it.
    {!Resilience.Barrier.Killed} propagates (an injected kill at a
    phase site must terminate the process — under the pool, a worker
    exiting 99 takes the coordinator down the same way);
    {!Resilience.Barrier.Interrupted} is caught and yields a partial
    [run] with [rn_interrupted] set.

    [on_journal ~at] observes every lifecycle event in coordinator
    arrival order, whether or not a journal is configured; the live
    progress display feeds on it.  With a journal, an observer never
    sees an event the journal could still lose: it fires after the
    fsync that covers the record, and [at] is the record's journal
    stamp.  Without one, [at] is the time the runner saw the event.
    Events are published in commits — once per app sequentially, once
    per window under [ro_jobs > 1] (see {!Pool.run}) — so [at] can
    precede the call by up to an app's run or a commit window, and an
    app's events reach the observer before its cache entry is written
    and its result published.  [on_state] relays the pool's scheduling
    state (see {!Pool.run}); it never fires for sequential runs.

    Under [ro_jobs > 1] the work is spread over forked workers
    ({!Pool}): the coordinator alone appends to the journal and the
    cache, workers ship events and reports back over pipes, each
    report with one telemetry delta (the metrics samples, spans and
    profile rows its task recorded, merged by the coordinator), and a
    worker death quarantines only its in-flight app (crash phase
    ["worker"]) while a replacement worker is respawned.  With [ro_hang_timeout] set, a worker the watchdog had
    to kill quarantines its app under crash phase ["hung@PHASE"]
    instead (after one free requeue, journaled as a [Retried] event
    with reason ["hung@PHASE"]) — the taxonomy keeps silent wedges
    distinct from crashes in every downstream report.

    The {!Extr_resilience.Fault} sites [app.crash] (fired once per app,
    before the cache probe: every attempt crashes), [worker.exit] and
    [worker.spin] (fired in the worker wrapper) take the app id as
    their argument. *)

val report_json :
  ?extra:(string * string) list -> config:string -> run -> string
(** The corpus report envelope: configuration fingerprint plus one
    member per app — status, attempts, [cached], and the app's
    deterministic report spliced in verbatim (never reparsed, so cached
    and fresh serializations stay byte-identical).  [extra] members
    (key, raw JSON value) are spliced between the config and the apps;
    [merge] uses them for [missing_shards[]] and friends, and leaves
    them empty on a clean merge so the envelope stays byte-identical to
    the unsharded run's. *)

type envelope = {
  en_config : string;
  en_extra : (string * Extr_httpmodel.Json.t) list;
      (** the [extra] members, in file order *)
  en_run : run;
}

val envelope_of_json : string -> (envelope, string) result
(** The one reader of a {!report_json} envelope.  Each app entry comes
    back as the [app_result] it was printed from, its report text
    re-printed by {!Extr_httpmodel.Json.to_string} (byte-identical to a
    cached report); what the envelope does not carry comes back empty —
    [ar_resumed = false], [ar_elapsed_s = 0.], an empty crash backtrace,
    no worker spans — and [ar_txs]/[ar_degradations] are re-read from
    the report.  [Error] when the text is not an envelope. *)
