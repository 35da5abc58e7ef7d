(** Exporters: Chrome trace-event JSON (loadable in Perfetto or
    chrome://tracing), a flat JSON metrics snapshot, the method
    profiler's artifact with its collapsed-stack companion, and the one
    Fmt-rendered profile view. *)

val write_file : string -> string -> unit
(** [write_file path contents] writes atomically: contents go to a temp
    file in [path]'s directory which is then renamed over [path].

    The atomicity contract: readers of [path] see either the previous
    complete contents or the new complete contents, never a prefix — a
    crash mid-export leaves at most an orphaned [.*.tmp] file, never a
    truncated [path].  The temp file lives in [path]'s own directory
    because rename is only atomic within one filesystem.  Temp names
    carry the pid, a per-process counter {e and} a random suffix, so
    concurrent writers never collide even when they are forked workers
    (which inherit the stdlib temp-name PRNG state), distinct shard
    processes on different machines sharing one artifact directory, or
    a pid reused after a respawn.  Used by every exporter here, by the
    provenance export, and by the result cache and merge outputs. *)

val set_write_fault : (string -> string option) -> unit
(** Install the write-fault hook ({!Extr_resilience.Fault} arms it; this
    library sits below the fault plan, so injection reaches it by
    inversion).  The hook is consulted once per {!write_file} with the
    destination path; returning [Some mode] injects: ["enospc"] (partial
    temp write, then [Sys_error], temp cleaned up), ["orphan"] (partial
    temp write, then [Sys_error] {e without} cleanup — a simulated
    SIGKILL mid-write), ["short"] (the write "succeeds" but the renamed
    target is truncated to half the contents).  Unknown modes write
    normally. *)

val sweep_temps : dir:string -> unit -> int
(** Remove orphaned {!write_file} temp files ([.*.tmp]) in [dir] older
    than one hour — far beyond any live writer's temp lifetime, so
    concurrent shards sharing the directory are never disturbed —
    returning how many were removed.  A missing or
    unreadable directory sweeps nothing.  Run by the result cache on
    open, i.e. on runner and merge startup. *)

val chrome_trace_lanes : (string * int * Span.span list) list -> string
(** [chrome_trace_lanes lanes] writes one or several processes' spans as
    one Chrome trace of complete ("X") events, timestamps and durations
    in microseconds and GC deltas in each event's [args]: each
    [(label, tid, spans)] lane becomes a named thread (a [thread_name]
    metadata record followed by the lane's spans, which are re-sorted by
    begin time so per-lane timestamps are monotonic).  All lanes share
    one epoch — the earliest span begin across the fleet — so a
    coordinator lane and the worker lanes shipped back over the pool
    pipe line up on a single time axis. *)

val metrics_json : Metrics.t -> string
(** The registry snapshot as a flat JSON document:
    [{"metrics": [{"name", "kind", "labels", "count", "sum", "buckets"?,
    "p50"?, "p95"?, "p99"?}]}] — histogram series additionally carry
    {!Metrics.percentile} summaries alongside the raw buckets. *)

val write_metrics : string -> Metrics.t -> unit

val metrics_of_json : string -> (Metrics.sample list, string) result
(** The one reader of a {!metrics_json} document: its series back as
    samples, in file order.  Help strings are not exported (they decode
    as [""]) and the percentile summaries are left to
    {!Metrics.percentile}; a series of unknown kind is dropped.  [Error]
    when the text is not JSON or has no [metrics] array — a profile or
    any other artifact passed where a snapshot belongs. *)

val read_metrics : string -> (Metrics.sample list, string) result
(** {!metrics_of_json} over a file; a decoding error is prefixed with
    the path. *)

val folded_lanes : Span.span list list -> string
(** The lanes as collapsed stacks (the flamegraph.pl / speedscope
    "folded" format): one line per distinct stack — frames root-first
    joined by [';'], a space, and the stack's summed {e self} time in
    integer microseconds.  Each lane folds on its own nesting and equal
    stacks merge by summing; lines are sorted, so equal recordings fold
    to byte-identical output. *)

val phase_rollup : Span.span list list -> (string * float * float) list
(** Per-span-name [(name, cumulative_s, self_s)] totals across all
    lanes, sorted by name — the per-phase envelope a per-method
    attribution must sum inside. *)

val profile_json : Profile.snapshot * (string * float * float) list -> string
(** The profiler's artifact: the snapshot's rows and a per-phase rollup
    (typically {!phase_rollup} of the run's span lanes) as
    [{"profile": [{"method", "phase", "time_s", "fuel", "visits",
    "facts"}], "waste": [{"scope", "touched_methods",
    "contributing_methods", "waste_ratio"}], "phases": [{"phase",
    "cum_s", "self_s"}]}]. *)

val profile_of_json :
  string ->
  (Profile.snapshot * (string * float * float) list, string) result
(** The one reader of a {!profile_json} document: the pair it was
    written from (rows in file order; the waste ratio is recomputed by
    {!Profile.waste_ratio}).  [Error] when the text is not JSON or has
    no [profile] array. *)

val read_profile :
  string -> (Profile.snapshot * (string * float * float) list, string) result
(** {!profile_of_json} over a file; a decoding error is prefixed with
    the path. *)

val pp_profile :
  Format.formatter -> Profile.snapshot * (string * float * float) list -> unit
(** The one profile view ([--profile] after a run, [stats --profile]
    over the artifact): one row per phase (self and cumulative time),
    the 20 hottest (method, phase) rows by self time with the method's
    cumulative time over all phases, fuel, visits and facts, then one
    waste line per recorded scope.  It reads only what {!profile_json}
    writes, so a decoded artifact prints as the pair it was written
    from. *)
