(** Write-ahead journal for corpus runs.

    [extractocol --all] appends one record per per-app state transition
    — started, retried, crashed, finished — so a killed run can be
    resumed: [--resume] replays the journal, skips every app with a
    [finished] record (restoring its result from the content-addressed
    cache when possible) and re-runs the rest.  The serialized form is
    JSONL, one record per line, with a header line carrying the
    configuration fingerprint; resuming under a different configuration
    is refused, because the journaled results would not match what the
    new configuration produces.

    Records are O(1) to add: the journal holds an open out-channel and
    each event is one line written at end-of-file.  Durability comes in
    two steps.  {!write} hands the record to the kernel, so a process
    killed after it returns loses nothing; {!sync} is one fsync, which
    makes every record written so far survive a power loss too.  A kill
    mid-write can leave at most one torn trailing line, which {!load}
    tolerates (the partial line is dropped and the file truncated back
    to the last complete record).

    {b The contract.}  A record is synced before anything is published
    from it: before an observer sees it, before its app's cache entry
    is written, and before the app's result is published.  A power loss
    can therefore lose only records nobody has seen, and [--resume]
    re-runs those apps.  Sequential runs write an app's records as they
    happen and sync once when the app is done, before its cache entry
    and result.  The pooled coordinator writes each record as it reads
    it and syncs once per commit window, publishing the window's records
    and results after the fsync (the [commit] callback of [Pool.run]).
    The ["journal.fsyncs"] counter counts every {!sync}; the header's
    own fsync at {!create} is not counted.

    Every line additionally carries a content checksum (a final ["c"]
    member covering the rest of the line) and every record a stamp (a
    ["t"] member), so {e mid-file} corruption — bit rot, a tear glued to
    the next record, an interleaved partial write, an edited line — is
    detected on every read: a record without a valid seal or a stamp is
    dropped and reported as an {!anomaly}, never trusted and never
    fatal.  The readers accept exactly the lines the writers write. *)

type event =
  | Started of { ev_app : string; ev_key : string; ev_attempt : int }
      (** analysis began; [ev_key] is the result-cache address *)
  | Retried of { ev_app : string; ev_attempt : int; ev_reason : string }
      (** the retry ladder escalated ([ev_attempt] is the new attempt) *)
  | Crashed of { ev_app : string; ev_phase : string; ev_exn : string }
      (** the fault barrier caught a crash *)
  | Finished of {
      ev_app : string;
      ev_key : string;
      ev_status : string;  (** ["ok"], ["degraded"] or ["quarantined"] *)
      ev_cached : bool;  (** the result came from the cache *)
      ev_attempts : int;
      ev_txs : int;
    }

type t

type anomaly = { an_line : int;  (** 1-based line number in the file *)
                 an_reason : string }
(** One dropped record: a line without a valid seal, or whose sealed
    payload does not parse or is not a stamped event.  The benign torn
    {e tail} (a final line with no newline — a mid-append kill) is not
    an anomaly. *)

val pp_anomaly : Format.formatter -> anomaly -> unit

val create :
  ?clock:Extr_telemetry.Clock.t -> path:string -> config:string -> unit -> t
(** Start a fresh journal at [path] (truncating any previous one) whose
    header records the [config] fingerprint.  Every record — header
    included — is stamped with the [clock]'s current time (default:
    wall clock), so an offline reader can reconstruct per-app wall time
    and the run's timeline from the file alone. *)

val load :
  ?clock:Extr_telemetry.Clock.t ->
  path:string ->
  config:string ->
  unit ->
  (t * (float * event) list * anomaly list, string) result
(** Re-open an existing journal for [--resume].  [Error] when the file
    is missing or unreadable, the header is absent, unsealed or fails
    its checksum, or the header's configuration fingerprint differs from
    [config].  A truncated trailing line (a mid-append kill) is dropped
    and the file truncated back to the last complete record; corrupt or
    malformed interior lines are dropped and returned as anomalies —
    the affected apps simply re-run, so a resumed run never trusts a
    corrupt record.  The records come back with their stamps, as
    {!read_lenient} returns them, and the returned journal is
    positioned to append after them. *)

val read_lenient :
  path:string ->
  (string option * (float * event) list * anomaly list, string) result
(** Read-only load for offline inspection ([stats], [merge]): the
    header's configuration fingerprint and every complete record with
    its stamp, plus the anomalies for dropped mid-file records.  Unlike
    {!load}, the file is not opened for appending, not truncated, and no
    configuration is required — a torn trailing line is simply skipped,
    so a journal left by a killed (or still-running) run can be
    inspected without touching it.  A zero-byte (or whitespace-only)
    journal — a run that died between opening the file and writing the
    header, the stale-lock shape — is [Ok (None, [], [])], so [merge]
    and [stats] can classify it as an empty shard.  A non-empty file
    whose header is malformed, unsealed or fails its checksum is an
    [Error]. *)

val header_line : ?stamp:float -> config:string -> unit -> string
(** The header record (no trailing newline) exactly as {!create} writes
    it, with an optional explicit timestamp — for offline writers (the
    [merge] subcommand) producing a journal the runner's readers accept
    verbatim. *)

val line_of_event : stamp:float -> event -> string
(** One event record (no trailing newline) exactly as {!write} writes
    it, with an explicit timestamp carried over from the source
    journal. *)

val write : t -> event -> float
(** Record an event: one sealed JSONL line, stamped with the journal
    clock, written at end-of-file and handed to the kernel (no fsync),
    so the event survives a kill of this process but not yet a power
    loss.  Returns the record's stamp.  O(1) in the journal size.
    Consults the {!Fault} site ["journal.append"] (modes [torn],
    [bitflip], [drop]) so environment faults can be injected between
    the event and the disk. *)

val sync : t -> unit
(** One fsync: every record written so far survives a power loss.
    Counted in ["journal.fsyncs"]. *)

val append : t -> event -> unit
(** [write] then [sync]: the event survives anything once this
    returns. *)

val path : t -> string

type outcome = {
  oc_app : string;
  oc_finished : (float * event) option;
      (** the app's last [Finished] record and its stamp, unless a later
          [Started] follows it (the app was being re-run when the
          journal stopped) *)
  oc_crashed : (float * event) option;
      (** its last [Crashed] record and its stamp *)
  oc_started : float option;
      (** the stamp of its first [Started]; [None] for an app served from
          the cache, which has no [Started] record *)
}
(** What one app's records mean.  [--resume], [merge] and [stats] all
    read a journal through {!outcomes}, so they agree on which apps are
    finished and which are in flight. *)

val outcomes : (float * event) list -> outcome list
(** One outcome per app, in order of first appearance, folded over the
    records in list order.  [--resume] passes its journal's records in
    file order; [merge] and [stats] pass a shard set's records pooled in
    stamp order. *)

val pp_event : Format.formatter -> event -> unit
