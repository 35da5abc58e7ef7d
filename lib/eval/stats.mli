(** Offline run statistics: [extractocol stats].

    Reconstructs an [--all] run's report purely from the artifacts it
    left behind — the write-ahead journal (required; read-only via
    {!Merge.read_shard_set}, so a journal from a killed or still-running
    run is safe), the result cache directory and the metrics snapshot
    (both optional).  Per-app status and wall time come from the
    journal's per-app outcomes ({!Extr_resilience.Journal.outcomes}, the
    fold [--resume] and [merge] use too); retry-ladder and crash
    taxonomies from the retried/crashed records; per-phase latency
    percentiles from the [pipeline.phase_us] series — the same
    p50/p95/p99 estimate the metrics exporter annotates them with.

    {!summary_line} reproduces the exact footer [--all] prints, so the
    offline view can be diffed against the live run (the [e2e_check]
    trace scenario does). *)

type app = {
  st_app : string;
  st_status : string;
      (** ["ok"], ["degraded"], ["quarantined"], or ["in-flight"] when
          the app has no [finished] record that [--resume] would restore
          — none yet (a killed or live run), one followed by a later
          [started], or one whose status no writer produces *)
  st_cached : bool;
  st_attempts : int;
  st_txs : int;
  st_wall_s : float option;
      (** first [started] to last [finished] stamp; [None] for cached
          results (never started) *)
}

type phase = {
  ph_name : string;
  ph_count : int;
  ph_p50_us : float option;
  ph_p95_us : float option;
  ph_p99_us : float option;
}

type t = {
  rs_config : string;  (** the journal header's config fingerprint *)
  rs_apps : app list;  (** journal order of first appearance *)
  rs_finished : int;
  rs_ok : int;
  rs_degraded : int;
  rs_quarantined : int;
  rs_cached : int;
  rs_retries : (string * int) list;  (** retry reason → count, desc *)
  rs_crashes : (string * int) list;  (** crash phase → count, desc *)
  rs_wall_s : float option;  (** first to last record stamp *)
  rs_dropped : int;
      (** corrupt journal records the lenient reader dropped — non-zero
          means the numbers below may undercount a damaged run *)
  rs_cache_entries : int option;
      (** entries under the cache dir ({!Extr_store.Store.entries}) *)
  rs_phases : phase list;  (** [pipeline.phase_us] series, if metrics given *)
  rs_profile :
    (Extr_telemetry.Profile.snapshot * (string * float * float) list) option;
      (** the [--profile-out] artifact, decoded *)
}

val of_artifacts :
  journals:string list ->
  ?cache_dir:string ->
  ?metrics:string ->
  ?profile:string ->
  unit ->
  (t, string) result
(** One journal reconstructs the classic single-run view; several (a
    repeated [--journal] on the CLI) pool a shard set without running
    [merge] first: shard suffixes are stripped from the fingerprints
    (which must share a base), events merge in stamp order, and the
    summary covers the whole fleet.  A zero-byte journal — a shard that
    died before writing its header — counts as an empty run, not an
    error.  [Error] when a journal file is unreadable, a non-empty one
    has no readable header, the bases disagree (the message
    {!Merge.merge} prints too), or a given metrics/profile file is
    unreadable or not that artifact (the messages are
    {!Extr_telemetry.Export.read_metrics}'s and [read_profile]'s, the
    ones [merge] prints too).  A missing cache directory yields
    [rs_cache_entries = None], not an error. *)

val summary_line : t -> string
(** Exactly the [--all] footer:
    ["N apps: N ok, N degraded, N quarantined (N from cache)"] over the
    journal-finished apps. *)

val slowest : ?n:int -> t -> (app * float) list
(** The [n] (default 5) slowest apps by journal wall time, descending. *)

val pp : Format.formatter -> t -> unit
(** The full human-readable report: summary, slowest apps, retry ladder,
    crash taxonomy, cache hit rate, per-phase percentile table, and —
    when a profile artifact was given — a last section holding exactly
    {!Extr_telemetry.Export.pp_profile}'s view, the one the run's
    [--profile] printed. *)

(** {1 Offline integrity audit ([stats --verify])} *)

type verify_report = {
  vr_journal_anomalies : (string * Extr_resilience.Journal.anomaly list) list;
      (** journals containing corrupt records (checksum failures,
          unparseable lines), in input order; the lists are non-empty *)
  vr_journal_errors : (string * string) list;
      (** journals that could not be read at all *)
  vr_cache_checked : int;  (** cache entries whose content digest was checked *)
  vr_cache_corrupt : (string * string) list;  (** entry file → reason *)
}

val verify :
  journals:string list -> ?cache_dir:string -> unit -> verify_report
(** Audit a shard set's artifacts without reconstructing the run: every
    journal record's seal is re-verified ({!Merge.read_shard_set}) and
    every cache entry's content digest re-computed
    ({!Extr_store.Store.audit}).  Read-only and crash-tolerant like the
    rest of this module.  A torn final record (no trailing newline) is
    the normal kill shape, not corruption, and does not appear here. *)

val verify_clean : verify_report -> bool
(** No anomalies, no unreadable journals, no corrupt cache entries —
    the CLI exits 0 on [true] and 3 otherwise. *)

val pp_verify : Format.formatter -> verify_report -> unit
