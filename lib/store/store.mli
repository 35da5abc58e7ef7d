(** Content-addressed result cache for corpus runs.

    A corpus re-run over unchanged apps should not redo static analysis:
    the result of analyzing an app is fully determined by the app's
    Limple program (plus manifest and resources), the analysis
    configuration, and the analysis implementation itself.  {!key}
    digests all three into a hex address; {!find}/{!store} read and
    write the serialized result under that address in a cache
    directory, counting ["cache.hits"]/["cache.misses"] in the metrics
    registry.  Writes go through the telemetry temp+rename discipline,
    so a crash mid-store never leaves a truncated entry behind. *)

module Apk = Extr_apk.Apk

val analysis_version : int
(** Bumpable invalidation lever: part of every {!key}.  Bump it whenever
    the pipeline's output for an unchanged input changes (new analysis
    features, fixed bugs, report-format changes), and every previously
    cached result becomes unreachable without touching the cache
    directory. *)

type key = private string
(** A hex digest addressing one analysis result. *)

val key : ?version:int -> config:string -> Apk.t -> key
(** Digest of the app content (textual Limple program, manifest,
    resource table), the [config] fingerprint (see
    {!Extr_extractocol.Pipeline.options_fingerprint}) and the analysis
    [version] (default {!analysis_version}).  The program text is
    {!Extr_ir.Pp.add_program}'s output after a header whose fields are
    escaped so that no field can forge another's separator. *)

val key_to_string : key -> string
val key_of_string : string -> key option
(** Validates the hex-digest shape; [None] otherwise. *)

type t
(** An open cache rooted at a directory. *)

val open_ : dir:string -> unit -> t
(** Open (creating the directory if needed), garbage-collecting
    orphaned write temps older than an hour (see
    {!Extr_telemetry.Export.sweep_temps}) — the startup sweep that
    keeps a long-lived artifact directory free of dead writers'
    leftovers.  Swept files count into ["cache.temps.swept"].
    @raise Sys_error when the directory cannot be created. *)

val dir : t -> string

type entry =
  | Absent  (** no entry file *)
  | Corrupt of string
      (** the file cannot be read, has no valid seal or fails its
          content digest: the reason *)
  | Payload of string  (** the verified contents *)

val read_entry : dir:string -> key -> entry
(** Read and verify one entry of the cache directory [dir] without
    opening it: no directory is created, no temp swept, no counter
    bumped — [merge] reads its input caches this way.  {!find} and
    {!audit} read entries through the same reader. *)

val find : t -> key -> string option
(** The stored contents, or [None].  Bumps ["cache.hits"] or
    ["cache.misses"] when the metrics registry is enabled.  A
    {!Corrupt} entry — one without a valid seal — is a miss, never an
    error (["cache.corrupt"] counts it): a corrupt artifact is never
    served, the app re-runs, and the fresh {!store} heals the entry.
    Consults the {!Extr_resilience.Fault} site ["store.read"] (modes
    [bitflip], [miss]). *)

val store : t -> key -> string -> unit
(** Atomically write the entry (temp file + rename), sealed with a
    content digest ({!decode} strips and verifies it).  Consults the
    {!Extr_resilience.Fault} site ["store.write"] (modes [bitflip],
    [drop]).
    @raise Sys_error when the cache directory is not writable. *)

val seal : string -> string
(** Prefix the integrity header (["%EXTR1 <md5hex>\n"]) covering the
    payload — what {!store} writes. *)

val decode : string -> (string, string) result
(** Verify and strip a sealed entry back to its payload.  [Error reason]
    is a missing or malformed header or a digest mismatch — the caller
    must treat the entry as missing. *)

val entries : dir:string -> key list option
(** The entries of the cache directory [dir], sorted: every file named
    [<key>.json], the name {!store} writes.  Write temps and any other
    file are not entries.  [None] when [dir] cannot be read.  {!audit}
    and [stats] count entries with it. *)

val audit : dir:string -> int * (string * string) list
(** Offline integrity audit ([stats --verify]): read every {!entries}
    member of [dir] as {!read_entry} does; returns the entry count and
    the corrupt ones as [(filename, reason)]. *)
