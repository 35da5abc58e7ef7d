(** Fault injection: the one registry every failure test goes through.

    The plan simulates the process, a worker or the environment failing
    at a named site: the process dying at a pipeline phase boundary, an
    app the pipeline always crashes on, a worker exiting or spinning
    mid-app, a write that hits ENOSPC, a journal record torn mid-file, a
    cache entry rotting on disk, a worker pipe delivering half a frame.
    Sites are consulted by production code paths
    ({!Resilience.Barrier.set_phase},
    {!Extr_telemetry.Export.write_file} via a hook, {!Journal.write},
    [Store] reads/writes, the runner's per-app lifecycle, the pool's
    framing layer and its worker wrapper), so an armed plan exercises
    exactly the code a real fault would.  The CLI arms it with
    [--inject]; tests call {!arm}.

    The plan is deterministic: an entry [SITE\@N:MODE] fires on the
    [N]th matching hit of [SITE] in this process and then disarms
    (forked workers inherit the coordinator's un-fired plan, so a
    requeued task re-encounters the same fault in its replacement
    worker).  [MODE] selects the failure flavor and is interpreted by
    the site ([enospc], [short], [orphan] for [export.write]; [torn],
    [bitflip], [drop] for [journal.append]; [bitflip], [miss] for
    [store.read]; [bitflip], [drop] for [store.write]; ignored by
    [pool.frame]).  Every pipeline phase name is a site too
    ([pipeline.interpretation\@2:kill]): firing raises
    {!Resilience.Barrier.Killed}, whatever the mode.  For sites that
    pass an [arg] to {!fire} — the app id, at [app.crash] (every
    attempt at the app crashes, so it is quarantined), [worker.exit]
    (the worker [_exit]s 86) and [worker.spin] (the worker spins
    without heartbeats) — a non-empty mode is instead a target filter:
    only hits whose [arg] equals it match.

    Armed faults count into the ["fault.injected"] metric (labelled by
    site) when the registry is enabled. *)

val reset : unit -> unit
(** Disarm everything (tests). *)

val arm : site:string -> ?occurrence:int -> ?mode:string -> unit -> unit
(** Arm one entry: fire on the [occurrence]th (default 1st) matching
    hit of [site] with the given [mode] (default [""]). *)

val parse : string -> (string * int * string, string) result
(** Parse a [SITE[\@N][:MODE]] spec into [(site, occurrence, mode)]. *)

val arm_spec : string -> (unit, string) result
(** {!parse} + {!arm}; [Error] explains a malformed spec. *)

val fire : ?arg:string -> string -> string option
(** [fire ?arg site] counts a hit at [site] and returns [Some mode]
    when an armed entry's occurrence is reached (then disarms it).
    Entries with a non-empty mode only match a hit carrying an equal
    [arg]; entries whose mode is empty match any hit.  Instrumented
    call sites must treat [None] as "no fault" at zero cost. *)
