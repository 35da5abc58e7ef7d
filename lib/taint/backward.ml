(* Backward taint propagation (§3.1): the edge directions of the control
   flow graph are flipped and the tainting rules inverted — a tainted
   left-hand side taints the right-hand side, and the taint information of
   callee arguments propagates to caller arguments.  Starting from the
   request object at a demarcation point, this computes the backward
   (request) slice: all statements contributing to the request.

   The fixpoint state lives in hash tables and the worklist is
   deduplicated (a statement whose after-set grows while it is already
   queued is transferred once, against the merged set).  Chaotic
   iteration over monotone transfers reaches the same fixpoint in any
   order, so the touched set and fact sets are unchanged — only the
   step count drops.  Engines are created per demarcation point and per
   async-heuristic iteration, so constant factors here dominate the
   slicing phase. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience

(* Evidence chain (provenance): the facts a transfer derived at a
   statement justify its slice membership.  Rendering a fact allocates,
   so the enabled flag is read before any formatting happens. *)
let record_gen sid (gen : Fact.Set.t) =
  if Provenance.is_enabled Provenance.default then
    Fact.Set.iter
      (fun f ->
        Provenance.record_fact_edge Provenance.default ~dir:`Backward ~stmt:sid
          (Format.asprintf "%a" Fact.pp f))
      gen

let m_steps =
  Metrics.counter ~help:"backward-propagation worklist iterations"
    "taint.backward.worklist_steps"

let m_facts =
  Metrics.counter ~help:"distinct facts alive after backward propagation"
    "taint.backward.facts"

type t = {
  prog : Prog.t;
  cg : Callgraph.t;
  after : (Ir.method_id, Fact.Set.t array) Hashtbl.t;
      (** facts relevant after each statement (reverse-flow entry set) *)
  param_relevant : (Ir.method_id * string, unit) Hashtbl.t;
      (** callee parameters (or "this") found relevant at method entry *)
  entry_globals : (Ir.method_id, Fact.Set.t) Hashtbl.t;
      (** global facts alive at method entries, flowing back to callers *)
  touched : (Ir.stmt_id, unit) Hashtbl.t;
  queue : Ir.method_id Queue.t;  (** methods with pending statements *)
  pending : (Ir.method_id, bool array) Hashtbl.t;
      (** per-statement pending flags (the deduplicated worklist) *)
  pending_count : (Ir.method_id, int ref) Hashtbl.t;
  mutable facts_acc : Fact.Set.t;
      (** running union of every fact ever merged anywhere — keeps
          [all_facts] O(1) for the async heuristic, which polls it per
          iteration per demarcation point *)
  meths : (Ir.method_id, Ir.meth option) Hashtbl.t;
      (** [Prog.find_method] memo — hit on every worklist step *)
  returns : (Ir.method_id, int list) Hashtbl.t;
      (** [Cfg.return_indices] memo — hit per app-callee invoke transfer *)
  transparent : (Ir.method_id, bool) Hashtbl.t;
      (** methods that pure-global injections pass through unchanged —
          see [globals_transparent] *)
  prof : Ir.method_id Profile.cursor;
      (** per-method cost attribution for the fixpoint loop *)
}

(* Predecessor arrays come from the call graph's shared per-method memo:
   engines are created per demarcation point (and per async iteration), so
   the old whole-program map here was rebuilt many times per app. *)
let create prog cg =
  {
    prog;
    cg;
    after = Hashtbl.create 64;
    param_relevant = Hashtbl.create 32;
    entry_globals = Hashtbl.create 32;
    touched = Hashtbl.create 128;
    queue = Queue.create ();
    facts_acc = Fact.Set.empty;
    pending = Hashtbl.create 64;
    pending_count = Hashtbl.create 64;
    meths = Hashtbl.create 64;
    returns = Hashtbl.create 32;
    transparent = Hashtbl.create 64;
    prof =
      Profile.cursor ~phase:"slicing.backward" ~render:Ir.Method_id.to_string
        ();
  }

let meth_of t mid =
  match Hashtbl.find_opt t.meths mid with
  | Some m -> m
  | None ->
      let m = Prog.find_method t.prog mid in
      Hashtbl.add t.meths mid m;
      m

let body_of t mid =
  match meth_of t mid with Some m -> m.Ir.m_body | None -> [||]

let returns_of t mid (m : Ir.meth) =
  match Hashtbl.find_opt t.returns mid with
  | Some r -> r
  | None ->
      let r = Extr_cfg.Cfg.return_indices m in
      Hashtbl.add t.returns mid r;
      r

let after_array t mid =
  match Hashtbl.find_opt t.after mid with
  | Some arr -> arr
  | None ->
      let arr = Array.make (max 1 (Array.length (body_of t mid))) Fact.Set.empty in
      Hashtbl.add t.after mid arr;
      arr

(* The worklist is a queue of methods, each with per-statement pending
   flags.  Draining a method sweeps its flags from the highest index down
   — the direction reverse flow moves — so a fact wave crosses the whole
   body in one pass instead of one growth-requeue cycle per statement. *)
let enqueue t mid idx =
  let flags =
    match Hashtbl.find_opt t.pending mid with
    | Some f -> f
    | None ->
        let f = Array.make (max 1 (Array.length (body_of t mid))) false in
        Hashtbl.add t.pending mid f;
        f
  in
  if idx < Array.length flags && not flags.(idx) then begin
    flags.(idx) <- true;
    let count =
      match Hashtbl.find_opt t.pending_count mid with
      | Some c -> c
      | None ->
          let c = ref 0 in
          Hashtbl.add t.pending_count mid c;
          c
    in
    if !count = 0 then Queue.add mid t.queue;
    incr count
  end

let merge_at t mid idx facts =
  let body = body_of t mid in
  if idx >= 0 && idx < Array.length body && not (Fact.Set.is_empty facts) then begin
    let arr = after_array t mid in
    (* Subset test first: at fixpoint most merges are no-ops, and the
       union + equality pair allocated on every one of them. *)
    if not (Fact.Set.subset facts arr.(idx)) then begin
      arr.(idx) <- Fact.Set.union arr.(idx) facts;
      t.facts_acc <- Fact.Set.union t.facts_acc facts;
      (* A fact-set growth event, charged to the method the engine is
         currently transferring (the producer). *)
      Profile.add_facts t.prof 1;
      enqueue t mid idx
    end
  end

(** Inject facts as relevant at (i.e. just after) the given statement. *)
let inject_at t (sid : Ir.stmt_id) facts =
  merge_at t sid.Ir.sid_meth sid.Ir.sid_idx (Fact.Set.of_list facts)

(** Inject the given facts at every return statement of a method (the
    reverse-flow entry points). *)
let inject_at_returns t mid facts =
  match meth_of t mid with
  | None -> ()
  | Some m ->
      List.iter
        (fun r -> merge_at t mid r (Fact.Set.of_list facts))
        (returns_of t mid m)

let globals_of = Fact.globals

(* A method is transparent to pure-global injections when propagating
   Ffield/Fstatic/Fdb facts through it provably changes nothing: globals
   survive its body unchanged (no instance/static field stores kill or
   touch on them), no SQLite call can consume an Fdb fact, and no app
   callee can carry the injection deeper.  For such a method the injected
   globals flow straight back out as its (already-known) entry globals —
   zero touched statements, zero new facts — so the injection is skipped.
   Both construction modes share this test, keeping them byte-identical;
   it is what makes the filler bulk of an app (inert UI helpers) cost
   nothing during slicing. *)
let globals_transparent t callee =
  match Hashtbl.find_opt t.transparent callee with
  | Some b -> b
  | None ->
      let b =
        match meth_of t callee with
        | None -> true
        | Some m ->
            Callgraph.callsites t.cg callee = []
            && Array.for_all
                 (fun stmt ->
                   match stmt with
                   | Ir.Assign ((Ir.Lfield _ | Ir.Lsfield _), _) -> false
                   | _ -> (
                       match Ir.stmt_invoke stmt with
                       | Some i ->
                           not (String.equal i.Ir.iref.Ir.mcls Api.sqlite_database)
                       | None -> true))
                 m.Ir.m_body
      in
      Hashtbl.add t.transparent callee b;
      b

let value_fact mid = function
  | Ir.Const _ -> []
  | Ir.Local v -> [ Fact.local mid v ]

(** Facts generated backward from reading an expression whose result is
    relevant. *)
let expr_gen mid (e : Ir.expr) : Fact.t list =
  match e with
  | Ir.Val v | Ir.Cast (_, v) -> value_fact mid v
  | Ir.Binop (_, a, b) -> value_fact mid a @ value_fact mid b
  | Ir.New _ -> []
  | Ir.NewArr (_, n) -> value_fact mid n
  | Ir.IField (x, f) ->
      [ Fact.local_path mid x f.Ir.fname; Fact.Ffield (f.Ir.fcls, f.Ir.fname) ]
  | Ir.SField f -> [ Fact.Fstatic (f.Ir.fcls, f.Ir.fname) ]
  | Ir.AElem (a, i) -> Fact.local mid a :: value_fact mid i
  | Ir.ALen a -> [ Fact.local mid a ]
  | Ir.Invoke _ -> []

(* ------------------------------------------------------------------ *)
(* Invoke handling (inverted rules)                                   *)
(* ------------------------------------------------------------------ *)

let handle_invoke t mid set (sid : Ir.stmt_id) (i : Ir.invoke) ~def_relevant :
    Fact.Set.t * bool =
  let base_relevant =
    match i.Ir.ibase with
    | Some b -> Fact.local_or_path_tainted set mid b
    | None -> false
  in
  let sites = Callgraph.callsite_at t.cg sid in
  let app_callees = List.concat_map (fun cs -> cs.Callgraph.cs_callees) sites in
  let gen = ref Fact.Set.empty in
  let touched = ref false in
  if app_callees = [] then begin
    (* Library call, inverted semantic model: a relevant output makes all
       inputs relevant. *)
    let db_arg idx =
      match List.nth_opt i.Ir.iargs idx with
      | Some (Ir.Const (Ir.Cstr s)) -> Some s
      | Some _ | None -> None
    in
    match Api.model_of i with
    | Some Libmodel.Db_write
      when (match db_arg 0 with
           | Some table -> Fact.Set.mem (Fact.Fdb table) set
           | None -> false) ->
        (* A relevant table store makes the inserted values relevant. *)
        touched := true;
        List.iter (fun v -> List.iter (fun f -> gen := Fact.Set.add f !gen) (value_fact mid v)) i.Ir.iargs
    | Some Libmodel.Db_query when def_relevant -> (
        touched := true;
        match db_arg 0 with
        | Some table -> gen := Fact.Set.add (Fact.Fdb table) !gen
        | None -> ())
    | Some Libmodel.Res_string ->
        (* Resource lookup: the result is an APK constant; keep the
           statement in the slice (the signature builder resolves the
           constant) but do not propagate into the integer id. *)
        if def_relevant then touched := true
    | Some _ | None ->
        if def_relevant || base_relevant then begin
          touched := true;
          (match i.Ir.ibase with
          | Some b -> gen := Fact.Set.add (Fact.local mid b) !gen
          | None -> ());
          List.iter
            (fun v -> List.iter (fun f -> gen := Fact.Set.add f !gen) (value_fact mid v))
            i.Ir.iargs
        end
  end
  else begin
    (* Application callees. *)
    let globals = globals_of set in
    List.iter
      (fun callee_id ->
        (* A relevant call result pulls the callee's returned values into
           the backward flow; relevant globals travel with it. *)
        (if def_relevant then
           match meth_of t callee_id with
           | None -> ()
           | Some callee ->
               touched := true;
               List.iter
                 (fun r ->
                   match callee.Ir.m_body.(r) with
                   | Ir.Return (Some (Ir.Local rv)) ->
                       merge_at t callee_id r
                         (Fact.Set.add (Fact.local callee_id rv) globals)
                   | Ir.Return _ -> merge_at t callee_id r globals
                   | _ -> ())
                 (returns_of t callee_id callee));
        if
          (not def_relevant)
          && (not (Fact.Set.is_empty globals))
          && not (globals_transparent t callee_id)
        then inject_at_returns t callee_id (Fact.Set.elements globals);
        (* Parameters already known relevant in the callee make the
           corresponding caller arguments relevant. *)
        (match meth_of t callee_id with
        | None -> ()
        | Some callee ->
            List.iteri
              (fun k (p : Ir.var) ->
                if Hashtbl.mem t.param_relevant (callee_id, p.Ir.vname) then begin
                  touched := true;
                  match List.nth_opt i.Ir.iargs k with
                  | Some v ->
                      List.iter (fun f -> gen := Fact.Set.add f !gen) (value_fact mid v)
                  | None -> ()
                end)
              callee.Ir.m_params;
            if Hashtbl.mem t.param_relevant (callee_id, "this") then begin
              touched := true;
              match i.Ir.ibase with
              | Some b -> gen := Fact.Set.add (Fact.local mid b) !gen
              | None -> ()
            end);
        (* Globals alive at the callee entry flow back to before the call. *)
        match Hashtbl.find_opt t.entry_globals callee_id with
        | Some g -> gen := Fact.Set.union g !gen
        | None -> ())
      app_callees
  end;
  (!gen, !touched)

(* ------------------------------------------------------------------ *)
(* Statement transfer (reverse)                                       *)
(* ------------------------------------------------------------------ *)

let transfer t mid idx (stmt : Ir.stmt) (set : Fact.Set.t) : Fact.Set.t =
  let sid = { Ir.sid_meth = mid; sid_idx = idx } in
  let touch () = Hashtbl.replace t.touched sid () in
  match stmt with
  | Ir.Assign (lhs, rhs) -> (
      match lhs with
      | Ir.Lvar v ->
          let def_relevant = Fact.local_or_path_tainted set mid v in
          let set', gen_from_call =
            match rhs with
            | Ir.Invoke i ->
                let gen, call_touched =
                  handle_invoke t mid set sid i ~def_relevant
                in
                if call_touched then begin
                  touch ();
                  record_gen sid gen
                end;
                (* Kill the definition after using it. *)
                let killed =
                  if def_relevant then Fact.kill_local set mid v else set
                in
                (killed, gen)
            | e ->
                if def_relevant then begin
                  touch ();
                  let gen = Fact.Set.of_list (expr_gen mid e) in
                  record_gen sid gen;
                  (Fact.kill_local set mid v, gen)
                end
                else (set, Fact.Set.empty)
          in
          Fact.Set.union set' gen_from_call
      | Ir.Lfield (x, f) ->
          let path = Fact.local_path mid x f.Ir.fname in
          let global = Fact.Ffield (f.Ir.fcls, f.Ir.fname) in
          if
            Fact.Set.mem path set || Fact.Set.mem global set
            || Fact.local_tainted set mid x
          then begin
            touch ();
            let set = Fact.Set.remove path set in
            let gen =
              match rhs with
              | Ir.Invoke _ -> Fact.Set.empty (* not generated by builder *)
              | e -> Fact.Set.of_list (expr_gen mid e)
            in
            record_gen sid gen;
            Fact.Set.union set gen
          end
          else set
      | Ir.Lsfield f ->
          let global = Fact.Fstatic (f.Ir.fcls, f.Ir.fname) in
          if Fact.Set.mem global set then begin
            touch ();
            let gen =
              match rhs with
              | Ir.Invoke _ -> Fact.Set.empty
              | e -> Fact.Set.of_list (expr_gen mid e)
            in
            record_gen sid gen;
            Fact.Set.union (Fact.Set.remove global set) gen
          end
          else set
      | Ir.Lelem (a, _) ->
          if Fact.local_tainted set mid a then begin
            touch ();
            let gen =
              match rhs with
              | Ir.Invoke _ -> Fact.Set.empty
              | e -> Fact.Set.of_list (expr_gen mid e)
            in
            record_gen sid gen;
            Fact.Set.union set gen
          end
          else set)
  | Ir.InvokeStmt i ->
      let gen, call_touched = handle_invoke t mid set sid i ~def_relevant:false in
      if call_touched then begin
        touch ();
        record_gen sid gen
      end;
      Fact.Set.union set gen
  | Ir.Return _ | Ir.If _ | Ir.Goto _ | Ir.Lab _ | Ir.Nop -> set

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let record_entry t mid (out : Fact.Set.t) =
  (* Reverse flow reached the method entry: record relevant parameters and
     globals, notify callers. *)
  match meth_of t mid with
  | None -> ()
  | Some m ->
      let changed = ref false in
      let params =
        (if m.Ir.m_static then [] else [ "this" ])
        @ List.map (fun (p : Ir.var) -> p.Ir.vname) m.Ir.m_params
      in
      List.iter
        (fun p ->
          if
            Fact.root_tainted out mid p
            && not (Hashtbl.mem t.param_relevant (mid, p))
          then begin
            Hashtbl.add t.param_relevant (mid, p) ();
            changed := true
          end)
        params;
      let globals = globals_of out in
      let prev =
        Option.value (Hashtbl.find_opt t.entry_globals mid) ~default:Fact.Set.empty
      in
      if not (Fact.Set.subset globals prev) then begin
        Hashtbl.replace t.entry_globals mid (Fact.Set.union prev globals);
        (* Entry globals derive from a transfer's output, whose generated
           facts may never be merged into any statement (entry statements
           have no predecessors) — fold them into the running union here. *)
        t.facts_acc <- Fact.Set.union t.facts_acc globals;
        changed := true
      end;
      if !changed then
        List.iter
          (fun sid -> enqueue t sid.Ir.sid_meth sid.Ir.sid_idx)
          (Callgraph.callers t.cg mid)

(** Union of all facts seen anywhere — used by the asynchronous-event
    heuristic to discover the heap objects that carry request parts.
    Maintained incrementally at merge time (state only ever grows), so
    polling it per async iteration no longer refolds the whole state. *)
let all_facts t = t.facts_acc

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

let pending_total t =
  Hashtbl.fold (fun _ c acc -> acc + !c) t.pending_count 0

let run ?budget t =
  let budget =
    match budget with Some b -> b | None -> standalone_budget ()
  in
  let steps = ref 0 in
  let stopped = ref false in
  let drain mid =
    match
      (Hashtbl.find_opt t.pending mid, Hashtbl.find_opt t.pending_count mid)
    with
    | Some flags, Some count when !count > 0 ->
        let body = body_of t mid in
        let arr = after_array t mid in
        let preds = Callgraph.stmt_preds t.cg mid in
        while !count > 0 && not !stopped do
          (* One downward sweep; facts merged below the cursor are caught
             in the same pass, merges above it start the next wave. *)
          let idx = ref (Array.length flags - 1) in
          while !idx >= 0 && not !stopped do
            (if flags.(!idx) then
               if Resilience.Budget.spend budget then begin
                 flags.(!idx) <- false;
                 decr count;
                 incr steps;
                 Profile.visit t.prof mid;
                 Profile.spend t.prof 1;
                 if !idx < Array.length body then begin
                   let out = transfer t mid !idx body.(!idx) arr.(!idx) in
                   match preds with
                   | None -> ()
                   | Some pred_arr ->
                       if pred_arr.(!idx) = [] || !idx = 0 then
                         record_entry t mid out;
                       List.iter (fun p -> merge_at t mid p out) pred_arr.(!idx)
                 end
               end
               else stopped := true);
            decr idx
          done
        done
    | _ -> ()
  in
  while (not (Queue.is_empty t.queue)) && not !stopped do
    drain (Queue.pop t.queue)
  done;
  Profile.close t.prof;
  (* Exhausting the budget with work still queued used to silently
     truncate the slice; now it is a recorded degradation. *)
  let left = pending_total t in
  if left > 0 then
    Resilience.Degrade.record_exhaustion ~phase:"slicing.backward"
      ~work_left:left budget
      "backward taint fixpoint stopped before the worklist drained; the \
       request slice is under-approximate";
  Metrics.incr m_steps ~by:!steps;
  (* The fact union is not free: compute it only when telemetry is on. *)
  if Metrics.is_enabled Metrics.default then
    Metrics.incr m_facts ~by:(Fact.Set.cardinal (all_facts t))

let touched_stmts t =
  Hashtbl.fold (fun sid () acc -> Ir.Stmt_set.add sid acc) t.touched
    Ir.Stmt_set.empty
