(** Resource governance and graceful degradation.

    {!Budget} is the single meter for every abstract step the pipeline
    takes — taint worklist iterations and interpreted statements draw
    from the same fuel, calls check the same depth bound, and an
    optional wall-clock deadline (read through the telemetry injectable
    clock) covers the whole run.  {!Degrade} is the ledger every phase
    appends to when it bails, so truncated results are reported instead
    of silently shipped.  {!Barrier} isolates whole-app crashes for
    corpus runs. *)

module Clock = Extr_telemetry.Clock

module Budget : sig
  type limits = {
    bl_max_steps : int;  (** total abstract steps across all phases *)
    bl_max_depth : int;  (** call-inlining depth bound (interpreter) *)
    bl_deadline_s : float option;  (** wall-clock seconds for the run *)
  }

  val default_limits : limits
  (** 20M steps (~10x the largest corpus app), depth 24, no deadline. *)

  val unlimited : limits

  type exhaustion = Steps | Depth | Deadline

  val exhaustion_reason : exhaustion -> string
  (** Stable degradation-reason strings: ["step-budget-exhausted"],
      ["call-depth-clipped"], ["deadline-exceeded"]. *)

  type t

  val create : ?clock:Clock.t -> ?limits:limits -> unit -> t
  (** A fresh budget; the deadline is anchored at creation time. *)

  val alive : t -> bool
  (** No sticky resource (fuel, deadline) has tripped yet. *)

  val spend : t -> bool
  (** Consume one abstract step; [false] once fuel or deadline is
      exhausted.  The deadline is polled every 4096 steps. *)

  val depth_ok : t -> depth:int -> bool
  (** Is a call at [depth] within the inlining bound?  Not sticky (only
      clips that call) but remembered for {!depth_clipped}. *)

  val steps_used : t -> int
  val exhaustion : t -> exhaustion option
  val depth_clipped : t -> bool
end

module Degrade : sig
  type degradation = {
    dg_phase : string;  (** phase that bailed, e.g. ["slicing.backward"] *)
    dg_reason : string;  (** {!Budget.exhaustion_reason} string, or ["crash"] *)
    dg_detail : string;
    dg_work_left : int;  (** work items remaining at the bail point *)
  }

  type t

  val create : unit -> t

  val default : t
  (** The process-wide ledger.  Always on — degradations are results,
      not observability.  {!Extr_extractocol.Pipeline.analyze} resets it
      per app and folds it into the report. *)

  val reset : t -> unit

  val record :
    ?ledger:t ->
    phase:string ->
    reason:string ->
    ?work_left:int ->
    string ->
    unit
  (** Append a degradation (default ledger: {!default}).  Repeats of the
      same (phase, reason) coalesce into one ledger entry with the
      [work_left] values summed.  Every call still bumps the
      ["pipeline.degradations"] metric (labels [phase], [reason]) and
      records provenance evidence when those subsystems are enabled. *)

  val record_exhaustion :
    ?ledger:t -> phase:string -> ?work_left:int -> Budget.t -> string -> unit
  (** {!record} with the reason taken from the budget's exhaustion
      state; a no-op if the budget never tripped. *)

  val items : t -> degradation list
  (** Chronological order. *)

  val pp_degradation : Format.formatter -> degradation -> unit
end

module Barrier : sig
  exception Killed
  (** Raised by {!set_phase} when the fault plan fires at the phase's
      site ([--inject PHASE\@N:kill]); the process dies with exit 99.
      Crosses {!protect}. *)

  exception Interrupted
  (** Raised from a SIGINT/SIGTERM handler to unwind a corpus run for a
      clean partial exit.  Crosses {!protect}. *)

  val set_phase : string -> unit
  (** Stamp the currently-running pipeline phase (crash attribution).
      Notifies the {!set_observer} callback, then counts a hit at the
      {!Fault} site named by the phase and raises {!Killed} if it
      fires. *)

  val set_observer : (string -> unit) -> unit
  (** Register a phase-transition observer (at most one).  The pool's
      worker wrapper uses it to send a heartbeat frame on every
      {!set_phase}, making phase transitions double as liveness
      signals for the coordinator's hung-worker watchdog. *)

  val clear_observer : unit -> unit

  val phase : unit -> string

  type crash = {
    cr_app : string;
    cr_exn : string;
    cr_phase : string;  (** pipeline phase active when it raised *)
    cr_backtrace : string;
  }

  val protect : app:string -> (unit -> 'a) -> ('a, crash) result
  (** Run behind an exception barrier: any escaped exception becomes an
      [Error crash] with its class, phase and backtrace — except the
      control exceptions {!Killed} and {!Interrupted}, which re-raise so
      they can stop the whole corpus run. *)

  val pp_crash : Format.formatter -> crash -> unit
end
