(* Forward taint propagation (§3.1): open-ended, flow-sensitive, and
   inter-procedural.  Starting facts are injected at demarcation points
   (response objects) and the engine tracks every statement that touches a
   tainted object — the forward (response) slice.  Handled by FlowDroid's
   default tainting rules in the paper; reimplemented here over Limple.

   Like the backward engine, the fixpoint state lives in one record per
   method (a slot: before-sets, pending flags, touched marks, return taint
   and exit globals), found with one table lookup per method visit, and
   the worklist is deduplicated: chaotic iteration over monotone
   transfers reaches the same fixpoint in any order, so only the step
   count changes. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks
module Taint_model = Extr_semantics.Taint_model
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience

(* Evidence chain (provenance): facts the transfer derived at a statement.
   The enabled flag is read before any fact is rendered. *)
let record_new mid idx (facts : Fact.t list) =
  if Provenance.is_enabled Provenance.default then
    let sid = { Ir.sid_meth = mid; sid_idx = idx } in
    List.iter
      (fun f ->
        Provenance.record_fact_edge Provenance.default ~dir:`Forward ~stmt:sid
          (Format.asprintf "%a" Fact.pp f))
      facts

let record_new_set mid idx (facts : Fact.Set.t) =
  if Provenance.is_enabled Provenance.default then
    record_new mid idx (Fact.Set.elements facts)

let m_steps =
  Metrics.counter ~help:"forward-propagation worklist iterations"
    "taint.forward.worklist_steps"

let m_facts =
  Metrics.counter ~help:"distinct facts alive after forward propagation"
    "taint.forward.facts"

(* One method's share of the fixpoint state; the arrays are indexed by
   statement and sized [max 1 (body length)]. *)
type slot = {
  mid : Ir.method_id;
  meth : Ir.meth option;
  body : Ir.stmt array;
  before : Fact.Set.t array;  (** facts holding before each statement *)
  pending : bool array;
      (** per-statement pending flags (the deduplicated worklist) *)
  mutable count : int;  (** pending flags set *)
  touched : bool array;  (** statements touching tainted data *)
  mutable ret_tainted : bool;  (** the method returns tainted data *)
  mutable exit_globals : Fact.Set.t;
      (** global (field/static/db) facts holding at method exits *)
  succs : int list array option Lazy.t;
      (** statement successors, from the call graph's shared memo *)
  sites : Callgraph.callsite list array Lazy.t;
      (** call-site records by statement, resolved on the first invoke
          transfer *)
}

type t = {
  prog : Prog.t;
  cg : Callgraph.t;
  slots : (Ir.method_id, slot) Hashtbl.t;
  queue : slot Queue.t;  (** methods with pending statements *)
  prof : Ir.method_id Profile.cursor;
      (** per-method cost attribution for the fixpoint loop *)
}

(* Engines are created per demarcation point; the flow arrays they read
   come from the call graph's shared per-method memo. *)
let create prog cg =
  {
    prog;
    cg;
    slots = Hashtbl.create 64;
    queue = Queue.create ();
    prof =
      Profile.cursor ~phase:"slicing.forward" ~render:Ir.Method_id.to_string ();
  }

let slot_of t mid =
  match Hashtbl.find_opt t.slots mid with
  | Some s -> s
  | None ->
      let meth = Prog.find_method t.prog mid in
      let body = match meth with Some m -> m.Ir.m_body | None -> [||] in
      let n = max 1 (Array.length body) in
      let s =
        {
          mid;
          meth;
          body;
          before = Array.make n Fact.Set.empty;
          pending = Array.make n false;
          count = 0;
          touched = Array.make n false;
          ret_tainted = false;
          exit_globals = Fact.Set.empty;
          succs = lazy (Callgraph.stmt_succs t.cg mid);
          sites = lazy (Callgraph.sites_by_stmt t.cg mid);
        }
      in
      Hashtbl.add t.slots mid s;
      s

let ret_tainted t mid =
  match Hashtbl.find_opt t.slots mid with Some s -> s.ret_tainted | None -> false

(* The worklist is a queue of methods, each with per-statement pending
   flags.  Draining a method sweeps its flags from index 0 upward — the
   direction forward flow moves — so a fact wave crosses the whole body
   in one pass instead of one growth-requeue cycle per statement. *)
let enqueue t s idx =
  if idx < Array.length s.pending && not s.pending.(idx) then begin
    s.pending.(idx) <- true;
    if s.count = 0 then Queue.add s t.queue;
    s.count <- s.count + 1
  end

let enqueue_callers t mid =
  List.iter
    (fun sid -> enqueue t (slot_of t sid.Ir.sid_meth) sid.Ir.sid_idx)
    (Callgraph.callers t.cg mid)

(** Merge facts into the before-set of a statement; enqueue on growth. *)
let merge_at t s idx facts =
  if idx < Array.length s.body && not (Fact.Set.is_empty facts) then begin
    (* Subset test first: at fixpoint most merges are no-ops, and the
       union + equality pair allocated on every one of them. *)
    if not (Fact.Set.subset facts s.before.(idx)) then begin
      s.before.(idx) <- Fact.Set.union s.before.(idx) facts;
      (* A fact-set growth event, charged to the method the engine is
         currently transferring (the producer). *)
      Profile.add_facts t.prof 1;
      enqueue t s idx
    end
  end

let inject_at_entry t mid facts = merge_at t (slot_of t mid) 0 (Fact.Set.of_list facts)

let inject_after t (sid : Ir.stmt_id) facts =
  match Callgraph.stmt_succs t.cg sid.Ir.sid_meth with
  | None -> ()
  | Some succ_arr ->
      if sid.Ir.sid_idx < Array.length succ_arr then begin
        let s = slot_of t sid.Ir.sid_meth in
        List.iter
          (fun i -> merge_at t s i (Fact.Set.of_list facts))
          succ_arr.(sid.Ir.sid_idx)
      end

let globals_of = Fact.globals

(* ------------------------------------------------------------------ *)
(* Expression taint                                                   *)
(* ------------------------------------------------------------------ *)

let expr_tainted mid set (e : Ir.expr) =
  match e with
  | Ir.Val v -> Fact.value_tainted set mid v
  | Ir.Binop (_, a, b) ->
      Fact.value_tainted set mid a || Fact.value_tainted set mid b
  | Ir.New _ | Ir.NewArr _ -> false
  | Ir.IField (x, f) ->
      Fact.local_tainted set mid x
      || Fact.Set.mem (Fact.local_path mid x f.Ir.fname) set
      || Fact.Set.mem (Fact.Ffield (f.Ir.fcls, f.Ir.fname)) set
  | Ir.SField f -> Fact.Set.mem (Fact.Fstatic (f.Ir.fcls, f.Ir.fname)) set
  | Ir.AElem (a, _) -> Fact.local_tainted set mid a
  | Ir.ALen a -> Fact.local_tainted set mid a
  | Ir.Cast (_, v) -> Fact.value_tainted set mid v
  | Ir.Invoke _ -> false (* calls handled separately *)

(* ------------------------------------------------------------------ *)
(* Invoke handling                                                    *)
(* ------------------------------------------------------------------ *)

(** Handle an invoke: returns whether the call's return value is tainted,
    plus extra facts generated at the call site (receiver/db effects). *)
let handle_invoke t s idx set (i : Ir.invoke) =
  let mid = s.mid in
  let base_tainted =
    match i.Ir.ibase with Some b -> Fact.local_or_path_tainted set mid b | None -> false
  in
  let args_tainted = List.map (Fact.value_tainted set mid) i.Ir.iargs in
  let any_input = base_tainted || List.exists Fun.id args_tainted in
  let sites =
    let by_stmt = Lazy.force s.sites in
    if idx < Array.length by_stmt then by_stmt.(idx) else []
  in
  let app_callees = List.concat_map (fun cs -> cs.Callgraph.cs_callees) sites in
  if app_callees = [] then begin
    (* Library call: semantic taint model. *)
    let effect = Taint_model.transfer i ~base_tainted ~args_tainted in
    let gen = ref Fact.Set.empty in
    (match (effect.Taint_model.taint_base, i.Ir.ibase) with
    | true, Some b -> gen := Fact.Set.add (Fact.local mid b) !gen
    | _, _ -> ());
    (match effect.Taint_model.db_write with
    | Some table -> gen := Fact.Set.add (Fact.Fdb table) !gen
    | None -> ());
    let ret_tainted =
      effect.Taint_model.taint_ret
      ||
      match effect.Taint_model.db_read with
      | Some table -> Fact.Set.mem (Fact.Fdb table) set
      | None -> false
    in
    (ret_tainted, !gen, any_input)
  end
  else begin
    (* Application callees: map arguments to parameters, propagate global
       facts into the callee, read back the return summary. *)
    let globals = globals_of set in
    List.iter
      (fun callee_id ->
        let cs = slot_of t callee_id in
        match cs.meth with
        | None -> ()
        | Some callee ->
            let entry = ref [] in
            (* this-binding for virtual calls *)
            (if not callee.Ir.m_static then
               match i.Ir.ibase with
               | Some b when Fact.local_or_path_tainted set mid b ->
                   entry := Fact.Flocal (callee_id, "this", []) :: !entry
               | Some _ | None -> ());
            (* Argument → parameter mapping, unless the callback table
               feeds this callee from the framework, the response, or
               (AsyncTask chaining) its predecessor's return value. *)
            (if Callbacks.receives_call_args callee_id.Ir.id_name then
               List.iteri
                 (fun k tainted ->
                   if tainted then
                     match List.nth_opt callee.Ir.m_params k with
                     | Some p -> entry := Fact.local callee_id p :: !entry
                     | None -> ())
                 args_tainted
             else
               match Callbacks.previous callee_id.Ir.id_name with
               | Some prev
                 when List.exists (fun c -> c.Ir.id_name = prev) app_callees
                      && ret_tainted t { callee_id with Ir.id_name = prev } -> (
                   match callee.Ir.m_params with
                   | p :: _ -> entry := Fact.local callee_id p :: !entry
                   | [] -> ())
               | Some _ | None -> ());
            merge_at t cs 0 (Fact.Set.of_list !entry);
            (* Globals always flow into callees. *)
            merge_at t cs 0 globals)
      app_callees;
    (* Return taint and global facts flowing back from callees. *)
    let ret = List.exists (ret_tainted t) app_callees in
    let back_globals =
      List.fold_left
        (fun acc c ->
          match Hashtbl.find_opt t.slots c with
          | Some cs -> Fact.Set.union acc cs.exit_globals
          | None -> acc)
        Fact.Set.empty app_callees
    in
    (ret, back_globals, any_input)
  end

(* ------------------------------------------------------------------ *)
(* Statement transfer                                                 *)
(* ------------------------------------------------------------------ *)

let transfer t s idx (stmt : Ir.stmt) (set : Fact.Set.t) : Fact.Set.t =
  let mid = s.mid in
  let touch () = s.touched.(idx) <- true in
  match stmt with
  | Ir.Assign (lhs, rhs) ->
      let rhs_tainted, extra =
        match rhs with
        | Ir.Invoke i ->
            let ret, gen, any_input = handle_invoke t s idx set i in
            if any_input || ret then begin
              touch ();
              record_new_set mid idx gen
            end;
            (ret, gen)
        | e ->
            let tainted = expr_tainted mid set e in
            (tainted, Fact.Set.empty)
      in
      let set = Fact.Set.union set extra in
      let set' =
        match lhs with
        | Ir.Lvar v ->
            if rhs_tainted then begin
              touch ();
              record_new mid idx [ Fact.local mid v ];
              Fact.Set.add (Fact.local mid v) (Fact.kill_local set mid v)
            end
            else Fact.kill_local set mid v
        | Ir.Lfield (x, f) ->
            if rhs_tainted then begin
              touch ();
              record_new mid idx
                [
                  Fact.local_path mid x f.Ir.fname;
                  Fact.Ffield (f.Ir.fcls, f.Ir.fname);
                ];
              set
              |> Fact.Set.add (Fact.local_path mid x f.Ir.fname)
              |> Fact.Set.add (Fact.Ffield (f.Ir.fcls, f.Ir.fname))
            end
            else set
        | Ir.Lsfield f ->
            if rhs_tainted then begin
              touch ();
              record_new mid idx [ Fact.Fstatic (f.Ir.fcls, f.Ir.fname) ];
              Fact.Set.add (Fact.Fstatic (f.Ir.fcls, f.Ir.fname)) set
            end
            else set
        | Ir.Lelem (a, _) ->
            if rhs_tainted then begin
              touch ();
              record_new mid idx [ Fact.local mid a ];
              Fact.Set.add (Fact.local mid a) set
            end
            else set
      in
      (* Reading a tainted value puts the statement in the slice even when
         nothing new is generated. *)
      if (not rhs_tainted) && List.exists (fun v -> Fact.local_or_path_tainted set mid v) (Ir.stmt_uses stmt)
      then touch ();
      set'
  | Ir.InvokeStmt i ->
      let _ret, gen, any_input = handle_invoke t s idx set i in
      if any_input || not (Fact.Set.is_empty gen) then begin
        touch ();
        record_new_set mid idx gen
      end;
      Fact.Set.union set gen
  | Ir.Return v ->
      (match v with
      | Some value when Fact.value_tainted set mid value ->
          touch ();
          if not s.ret_tainted then begin
            s.ret_tainted <- true;
            (* Re-examine all call sites of this method. *)
            enqueue_callers t mid
          end
      | Some _ | None -> ());
      (* Record exiting globals. *)
      let globals = globals_of set in
      if not (Fact.Set.subset globals s.exit_globals) then begin
        s.exit_globals <- Fact.Set.union s.exit_globals globals;
        enqueue_callers t mid
      end;
      set
  | Ir.If (v, _) ->
      if Fact.value_tainted set mid v then touch ();
      set
  | Ir.Goto _ | Ir.Lab _ | Ir.Nop -> set

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

(* Standalone engines (tests, direct API use) get a private fuel-only
   budget matching the historical bound; the pipeline passes its shared
   per-run budget instead. *)
let standalone_budget () =
  Resilience.Budget.create
    ~limits:
      {
        Resilience.Budget.unlimited with
        Resilience.Budget.bl_max_steps = 2_000_000;
      }
    ()

let pending_total t = Hashtbl.fold (fun _ s acc -> acc + s.count) t.slots 0

let run ?budget t =
  let budget =
    match budget with Some b -> b | None -> standalone_budget ()
  in
  let steps = ref 0 in
  let stopped = ref false in
  let drain s =
    if s.count > 0 then begin
      let succs = Lazy.force s.succs in
      let flags = s.pending in
      while s.count > 0 && not !stopped do
        (* One upward sweep; facts merged above the cursor are caught
           in the same pass, merges below it start the next wave. *)
        let idx = ref 0 in
        while !idx < Array.length flags && not !stopped do
          (if flags.(!idx) then
             if Resilience.Budget.spend budget then begin
               flags.(!idx) <- false;
               s.count <- s.count - 1;
               incr steps;
               Profile.visit t.prof s.mid;
               Profile.spend t.prof 1;
               if !idx < Array.length s.body then begin
                 let out = transfer t s !idx s.body.(!idx) s.before.(!idx) in
                 match succs with
                 | None -> ()
                 | Some succ_arr ->
                     List.iter (fun i -> merge_at t s i out) succ_arr.(!idx)
               end
             end
             else stopped := true);
          incr idx
        done
      done
    end
  in
  while (not (Queue.is_empty t.queue)) && not !stopped do
    drain (Queue.pop t.queue)
  done;
  Profile.close t.prof;
  (* Exhausting the budget with work still queued used to silently
     truncate the slice; now it is a recorded degradation. *)
  let left = pending_total t in
  if left > 0 then
    Resilience.Degrade.record_exhaustion ~phase:"slicing.forward"
      ~work_left:left budget
      "forward taint fixpoint stopped before the worklist drained; the \
       response slice is under-approximate";
  Metrics.incr m_steps ~by:!steps;
  (* The fact union is not free: compute it only when telemetry is on. *)
  if Metrics.is_enabled Metrics.default then begin
    let facts =
      Hashtbl.fold
        (fun _ s acc ->
          Array.fold_left Fact.Set.union (Fact.Set.union acc s.exit_globals)
            s.before)
        t.slots Fact.Set.empty
    in
    Metrics.incr m_facts ~by:(Fact.Set.cardinal facts)
  end

let tainted_stmts t =
  Hashtbl.fold
    (fun _ s acc ->
      let acc = ref acc in
      Array.iteri
        (fun idx hit ->
          if hit then acc := Ir.Stmt_set.add { Ir.sid_meth = s.mid; sid_idx = idx } !acc)
        s.touched;
      !acc)
    t.slots Ir.Stmt_set.empty

(** Facts holding before a given statement (empty if never reached). *)
let facts_before t (sid : Ir.stmt_id) =
  match Hashtbl.find_opt t.slots sid.Ir.sid_meth with
  | Some s when sid.Ir.sid_idx < Array.length s.before -> s.before.(sid.Ir.sid_idx)
  | Some _ | None -> Fact.Set.empty

(** Facts holding after a given statement: the transfer applied once more. *)
let facts_after t (sid : Ir.stmt_id) =
  let s = slot_of t sid.Ir.sid_meth in
  if sid.Ir.sid_idx < Array.length s.body then
    transfer t s sid.Ir.sid_idx s.body.(sid.Ir.sid_idx) (facts_before t sid)
  else Fact.Set.empty
