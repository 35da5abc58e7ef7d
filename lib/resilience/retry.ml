(* Degrade-and-retry ladder.  See the .mli for the policy semantics. *)

module Clock = Extr_telemetry.Clock
module Metrics = Extr_telemetry.Metrics
module Budget = Resilience.Budget
module Barrier = Resilience.Barrier

let src = Logs.Src.create "extractocol.retry" ~doc:"Degrade-and-retry ladder"

module Log = (val Logs.src_log src : Logs.LOG)

type policy = { rp_max_attempts : int }

let default_policy = { rp_max_attempts = 3 }
let no_retry = { rp_max_attempts = 1 }

(* The rest of the ladder follows from the attempt count: one crash
   retry, a 50ms base backoff and steps x4 / depth +8 / deadline x2 per
   escalation, or none of them when one attempt is all there is. *)
let ladder p = p.rp_max_attempts > 1
let crash_retries p = if ladder p then 1 else 0
let backoff_s p = if ladder p then 0.05 else 0.0
let escalate_steps p = if ladder p then 4 else 1
let escalate_depth p = if ladder p then 8 else 0
let escalate_deadline p = if ladder p then 2.0 else 1.0

let fingerprint p =
  Printf.sprintf "retry=%d/%d;backoff=%g;escalate=%dx/+%d/%gx" p.rp_max_attempts
    (crash_retries p) (backoff_s p) (escalate_steps p) (escalate_depth p)
    (escalate_deadline p)

let sat_mul a b = if a > max_int / b then max_int else a * b
let sat_add a b = if a > max_int - b then max_int else a + b

let escalate p (l : Budget.limits) =
  {
    Budget.bl_max_steps = sat_mul l.Budget.bl_max_steps (escalate_steps p);
    bl_max_depth = sat_add l.Budget.bl_max_depth (escalate_depth p);
    bl_deadline_s =
      Option.map (fun d -> d *. escalate_deadline p) l.Budget.bl_deadline_s;
  }

type 'a verdict = Clean of 'a | Degraded of 'a

type 'a outcome =
  | Succeeded of 'a * int
  | Still_degraded of 'a * int
  | Quarantined of Barrier.crash * int

let m_attempts =
  Metrics.counter ~help:"extra per-app attempts taken by the retry ladder (reason)"
    "retry.attempts"

let run ?(sleep = Clock.sleep_wall) ?(on_retry = fun ~attempt:_ ~reason:_ -> ())
    policy ~limits ~attempt =
  let backoff n =
    (* Deterministic exponential backoff before attempt n+1. *)
    let d = backoff_s policy *. (2.0 ** float_of_int (n - 1)) in
    if d > 0.0 then sleep d
  in
  let retry ~n ~reason =
    if Metrics.is_enabled Metrics.default then
      Metrics.incr m_attempts ~labels:[ ("reason", reason) ];
    Log.info (fun m -> m "retrying (attempt %d): %s" (n + 1) reason);
    backoff n;
    on_retry ~attempt:(n + 1) ~reason
  in
  let rec go ~n ~crashes limits =
    match attempt ~attempt:n limits with
    | Ok (Clean v) -> Succeeded (v, n)
    | Ok (Degraded v) ->
        if n >= policy.rp_max_attempts then Still_degraded (v, n)
        else begin
          retry ~n ~reason:"budget-exhausted";
          go ~n:(n + 1) ~crashes (escalate policy limits)
        end
    | Error crash ->
        if crashes >= crash_retries policy then Quarantined (crash, n)
        else begin
          retry ~n ~reason:("crash:" ^ crash.Barrier.cr_phase);
          (* Same limits: a crash is not a budget problem. *)
          go ~n:(n + 1) ~crashes:(crashes + 1) limits
        end
  in
  go ~n:1 ~crashes:0 limits
