(** Offline union of sharded [--all] artifacts: [extractocol merge].

    N shard runs (each [--shard K/N] over the same corpus and
    configuration) leave N journals and N — or fewer, when shared —
    cache directories.  {!merge} folds them back into what one unsharded
    run would have produced: {!report_json} is byte-identical to the
    [--all --jobs 1] envelope when every shard is present and healthy,
    {!journal_contents} is a journal the runner/stats readers accept
    verbatim, [mg_cache] is the unioned entry set, and {!merge_metrics}
    unions metrics snapshots through the same
    {!Extr_telemetry.Metrics.merge_samples} the pool coordinator uses
    for worker deltas.

    An app's merged result is what [--resume] would restore from the
    pooled journals: {!read_shard_set} pools every record in stamp
    order, {!Extr_resilience.Journal.outcomes} folds them per app and
    {!Runner.restore} rebuilds the result, so [merge], [--resume] and
    [stats] agree on which apps are finished.  An app whose last
    [finished] record is followed by a [started] one (killed during a
    re-run), or whose status no writer produces, is missing.

    The journals alone say what the set was run under: the base
    fingerprint their headers agree on is the merged configuration, and
    the corpus is the one it names ({!Runner.corpus_of_fingerprint}), so
    a merge takes no configuration of its own, as [stats] does not.

    Robustness contract:
    - {e idempotent} — per-app conflicts (overlapping shards, duplicated
      work, re-merging merge's own outputs) resolve newest-finished-wins
      by journal stamp, ties to the later input, so a second merge over
      the first one's outputs reproduces the same envelope;
    - {e corruption never aborts} — unreadable journals and
      truncated/corrupt cache entries become [mg_degradations] records
      (exit 3), the merge completes with everything else;
    - {e missing work is explicit} — absent shards and unaccounted apps
      are listed in the envelope ([missing_shards[]]/[missing_apps[]])
      and turn the exit code to 4, never a silent gap;
    - {e inputs stay read-only} — merging a still-running shard's
      artifacts is safe (it contributes its finished prefix). *)

module Journal = Extr_resilience.Journal

type degradation = {
  md_app : string;  (** [""] for journal-level trouble *)
  md_reason : string;
  md_detail : string;
}

type t = {
  mg_config : string;
      (** the base configuration fingerprint (shard suffixes stripped)
          the merged envelope, journal and cache keys live under *)
  mg_run : Runner.run;  (** merged results, corpus order *)
  mg_outcomes : Journal.outcome list;
      (** the pooled journals' outcome of each merged app, corpus order:
          its winning [Finished] and [Crashed] records, stamps
          preserved *)
  mg_missing_shards : int list;  (** 1-based, ascending *)
  mg_missing_apps : string list;
      (** corpus identities no surviving journal accounts for *)
  mg_degradations : degradation list;
  mg_cache : (string * string) list;
      (** unioned [(key, report)] entries, first valid copy per key *)
  mg_expected : int;  (** total corpus identities expected *)
}

val strip_shard : string -> string * (int * int) option
(** Split a journal fingerprint into its base and the trailing
    [";shard=K/N"] identity {!Runner.journal_fingerprint} appends, if
    one is present (in exactly that shape, [1 <= K <= N]). *)

(** What one input journal holds besides its records. *)
type journal =
  | Unreadable of string  (** the reader's error *)
  | Empty  (** zero bytes: a shard that died before its header *)
  | Header of {
      jh_config : string;  (** the header's fingerprint *)
      jh_base : string;  (** ... with its shard suffix stripped *)
      jh_shard : (int * int) option;  (** the stripped [K/N] *)
      jh_anomalies : Journal.anomaly list;  (** dropped records *)
    }

type shard_set = {
  ss_journals : (string * journal) list;  (** each path, input order *)
  ss_base : (string option, string) result;
      (** the base fingerprint every readable header names; [Ok None]
          when no journal has a readable header, [Error] naming two
          bases when the headers disagree *)
  ss_records : (float * Journal.event) list;
      (** every record of every journal, pooled in stamp order, ties
          kept in input order *)
}

val read_shard_set : string list -> shard_set
(** The one reader of a journal set, for [merge] and [stats]: each path
    read with {!Extr_resilience.Journal.read_lenient}, read-only, and the
    one decision of the set's base.  It never fails; both callers refuse
    an [Error] base, and each applies its own policy to unreadable
    journals ([stats] refuses them, {!merge} degrades them). *)

val merge :
  journals:string list ->
  ?cache_dirs:string list ->
  ?expect_shards:int ->
  unit ->
  (t, string) result
(** Union the shard artifacts.  The merged configuration is the set's
    base ({!read_shard_set}) and the expected result set is the
    identities ({!Runner.identify}) of the corpus it names, so the
    merged envelope's app order is the unsharded run's.  [journals] and
    [cache_dirs] are searched in the given order (ties in the
    newest-finished-wins rule go to later inputs; the first valid cache
    copy of a key wins — entries are content-addressed, so valid copies
    are identical).  Shard coverage is checked against [expect_shards]
    when given, else against the largest N the journals' shard suffixes
    declare.  [Error] only for a usage-level problem: an
    [expect_shards] below 1, journals whose headers name two different
    bases — results computed under another configuration must not be
    mixed in silently — or a set in which no journal has a readable
    header, since then nothing names the configuration or the corpus.
    Everything else (an unreadable journal beside readable ones, an
    empty/stale-lock journal, torn tail, missing or corrupt cache entry)
    degrades or classifies, it never aborts. *)

val exit_code : t -> int
(** The [merge] exit contract: 4 when shards or apps are missing
    (partial merge), 3 when any artifact was quarantined into
    [mg_degradations], 0 for a clean and complete merge.  Reflects the
    health of the {e merge}, not of the merged run — app-level
    degradations/quarantines live in the envelope, as [--all] already
    reported them live. *)

val report_json : t -> string
(** The merged corpus report envelope.  Byte-identical to the unsharded
    [--jobs 1] run's when the merge is clean and complete; otherwise the
    [missing_shards[]], [missing_apps[]] and [merge_degradations[]]
    members appear (only when non-empty) between the config and the
    apps. *)

type members = {
  mm_missing_shards : int list;
  mm_missing_apps : string list;
  mm_degradations : degradation list;
}
(** The members a merged envelope adds to {!Runner.report_json}'s. *)

val envelope_of_json : string -> (Runner.envelope * members, string) result
(** The one reader of a {!report_json} envelope: {!Runner.envelope_of_json}
    plus the merge members (empty when absent, as on a clean merge). *)

val journal_contents : t -> string
(** The merged journal: a header under [mg_config] followed by each
    quarantined app's winning [Crashed] record and every merged app's
    winning [Finished] record in corpus order, stamps carried over —
    readable by [stats], [--resume] and a further [merge] exactly like
    a runner-written journal. *)

val merge_metrics : string list -> (string, string) result
(** Union the given exported metrics snapshots into one snapshot
    document ({!Extr_telemetry.Export.metrics_json} shape): counters
    add, gauges take the labelled max, histogram buckets add slot-wise.
    [Error] when a file is unreadable or not a metrics snapshot. *)
