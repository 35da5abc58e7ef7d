(** Degrade-and-retry ladder for corpus runs.

    A transiently failing app should not ship a truncated result when a
    bigger budget would finish it, and a crashing app should get exactly
    one more chance before being quarantined.  {!run} drives one app
    through that ladder:

    - a {b clean} attempt returns immediately;
    - a {b degraded} attempt (budget/deadline exhaustion) is re-run with
      escalated limits — steps and deadline multiplied, depth widened —
      until the attempt cap; the last result is returned still degraded;
    - a {b crashed} attempt is retried once with unchanged limits (the
      paper's pathological apps crash deterministically; flaky
      infrastructure does not), then {b quarantined}.

    Backoff between attempts is deterministic: the base backoff times
    [2^(n-1)] before attempt [n+1], spent through an injectable
    {!Extr_telemetry.Clock.sleep}, so the ladder unit-tests without real
    sleeps.  Every extra attempt bumps the ["retry.attempts"] metric
    (label [reason]). *)

module Clock = Extr_telemetry.Clock
module Budget = Resilience.Budget
module Barrier = Resilience.Barrier

type policy = {
  rp_max_attempts : int;  (** total attempts, first one included *)
}
(** The rest of the ladder follows from the attempt count: above 1, one
    crash retry, a 50ms base backoff and steps x4 / depth +8 / deadline
    x2 per escalation; at 1, none of them. *)

val default_policy : policy
(** 3 attempts. *)

val no_retry : policy
(** 1 attempt: the ladder disabled. *)

val fingerprint : policy -> string
(** Canonical one-line form, part of the cache key and the journal
    configuration fingerprint: a different ladder can produce different
    results for the same app. *)

val escalate : policy -> Budget.limits -> Budget.limits
(** The limits for the next rung: steps and deadline multiplied, depth
    incremented, all saturating at [max_int] / unchanged [None]. *)

type 'a verdict =
  | Clean of 'a  (** finished with no degradations *)
  | Degraded of 'a  (** finished, but a budget or deadline tripped *)

type 'a outcome =
  | Succeeded of 'a * int  (** result + attempts used *)
  | Still_degraded of 'a * int
      (** every rung degraded; the last (largest-budget) result *)
  | Quarantined of Barrier.crash * int
      (** crashed, retried, crashed again: excluded from the corpus *)

val run :
  ?sleep:Clock.sleep ->
  ?on_retry:(attempt:int -> reason:string -> unit) ->
  policy ->
  limits:Budget.limits ->
  attempt:(attempt:int -> Budget.limits -> ('a verdict, Barrier.crash) result) ->
  'a outcome
(** Drive [attempt] up the ladder.  [attempt] runs the app under the
    given limits (behind its own {!Barrier.protect}) and classifies the
    result; [on_retry] fires before each re-run (the corpus runner
    journals it).  [sleep] defaults to {!Clock.sleep_wall}. *)
