(* Backward taint propagation (§3.1): the edge directions of the control
   flow graph are flipped and the tainting rules inverted — a tainted
   left-hand side taints the right-hand side, and the taint information of
   callee arguments propagates to caller arguments.  Starting from the
   request object at a demarcation point, this computes the backward
   (request) slice: all statements contributing to the request.

   One engine serves every demarcation point (DP) of an app, as an IFDS
   multi-query does: each fact carries the set of DPs it serves, as a
   bitset.  Every transfer is distributive per fact, so the facts a
   transfer produces for DP k are exactly what a one-DP engine would
   produce from the facts that carry k.  The state that is not per fact
   is kept per DP too — relevant callee parameters, entry globals and
   touched statements carry DP sets — so each DP's touched set is the
   fixpoint a one-DP engine reaches, while code the DPs share (the
   [onCreate] that registers every listener) is walked once, not once
   per DP.

   The fixpoint state lives in hash tables and the worklist is
   deduplicated (a statement whose after-set grows while it is already
   queued is transferred once, against the merged set).  Chaotic
   iteration over monotone transfers reaches the same fixpoint in any
   order, so the touched sets and fact sets are unchanged — only the
   step count drops. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience

(* Sets of DPs: bit k of word k / 62 stands for the k-th DP.  An engine
   for at most 62 DPs — every generated app and most real ones — works
   on one-word arrays, and the operations return an argument unchanged
   whenever they can, so a fixpoint that stops growing stops
   allocating. *)
module Tags : sig
  type t

  val empty : t
  val singleton : int -> t
  val is_empty : t -> bool
  val subset : t -> t -> bool
  val union : t -> t -> t
  val inter : t -> t -> t
  val diff : t -> t -> t
  val cardinal : t -> int
  val iter : (int -> unit) -> t -> unit
end = struct
  type t = int array

  let width = 62
  let empty = [||]
  let word a i = if i < Array.length a then Array.unsafe_get a i else 0

  let singleton k =
    let a = Array.make ((k / width) + 1) 0 in
    a.(k / width) <- 1 lsl (k mod width);
    a

  let is_empty a = Array.for_all (fun w -> w = 0) a

  let subset a b =
    let rec go i = i < 0 || (a.(i) land lnot (word b i) = 0 && go (i - 1)) in
    go (Array.length a - 1)

  let union a b =
    if subset a b then b
    else if subset b a then a
    else Array.init (max (Array.length a) (Array.length b)) (fun i -> word a i lor word b i)

  let inter a b =
    if subset a b then a
    else if subset b a then b
    else Array.init (min (Array.length a) (Array.length b)) (fun i -> a.(i) land b.(i))

  let diff a b =
    let rec disjoint i = i < 0 || (a.(i) land word b i = 0 && disjoint (i - 1)) in
    if disjoint (Array.length a - 1) then a
    else Array.mapi (fun i w -> w land lnot (word b i)) a

  let cardinal a =
    let rec pop w n = if w = 0 then n else pop (w land (w - 1)) (n + 1) in
    Array.fold_left (fun n w -> pop w n) 0 a

  let iter f a =
    Array.iteri
      (fun i w ->
        if w <> 0 then
          for j = 0 to width - 1 do
            if w land (1 lsl j) <> 0 then f ((i * width) + j)
          done)
      a
end

(** Facts with the DPs each serves. *)
type facts = Tags.t Fact.Map.t

let tags_of (m : facts) f =
  match Fact.Map.find_opt f m with Some b -> b | None -> Tags.empty

(** DPs of the access paths rooted at a local: the DPs for which the
    one-DP test [Fact.local_or_path_tainted] holds. *)
let root_tags (m : facts) mid name =
  Fact.fold_root (fun _ b acc -> Tags.union b acc) m mid name Tags.empty

let tag fs b : facts =
  if Tags.is_empty b then Fact.Map.empty
  else List.fold_left (fun acc f -> Fact.Map.add f b acc) Fact.Map.empty fs

let union (a : facts) (b : facts) : facts =
  if Fact.Map.is_empty a then b
  else if Fact.Map.is_empty b then a
  else Fact.Map.union (fun _ x y -> Some (Tags.union x y)) a b

(** Keep each binding's DPs in [b] (or, with [~out], outside [b]). *)
let restrict ?(out = false) (m : facts) b : facts =
  Fact.Map.filter_map
    (fun _ x ->
      let x = if out then Tags.diff x b else Tags.inter x b in
      if Tags.is_empty x then None else Some x)
    m

(* Evidence chain (provenance): the facts a transfer derived at a
   statement justify its slice membership — those of the DPs the
   statement was touched for.  Rendering a fact allocates, so the enabled
   flag is read before any formatting happens. *)
let record_gen sid (gen : facts) touched =
  if Provenance.is_enabled Provenance.default then
    Fact.Map.iter
      (fun f b ->
        if not (Tags.is_empty (Tags.inter b touched)) then
          Provenance.record_fact_edge Provenance.default ~dir:`Backward ~stmt:sid
            (Format.asprintf "%a" Fact.pp f))
      gen

let m_steps =
  Metrics.counter ~help:"backward-propagation worklist iterations"
    "taint.backward.worklist_steps"

let m_facts =
  Metrics.counter
    ~help:"distinct facts alive after backward propagation, summed over DPs"
    "taint.backward.facts"

type t = {
  prog : Prog.t;
  cg : Callgraph.t;
  dps : int;  (** the DPs served are 0 .. dps - 1 *)
  after : (Ir.method_id, facts array) Hashtbl.t;
      (** facts relevant after each statement (reverse-flow entry set) *)
  param_relevant : (Ir.method_id * string, Tags.t) Hashtbl.t;
      (** callee parameters (or "this") found relevant at method entry *)
  entry_globals : (Ir.method_id, facts) Hashtbl.t;
      (** global facts alive at method entries, flowing back to callers *)
  touched : (Ir.stmt_id, Tags.t) Hashtbl.t;
  queue : Ir.method_id Queue.t;  (** methods with pending statements *)
  pending : (Ir.method_id, bool array) Hashtbl.t;
      (** per-statement pending flags (the deduplicated worklist) *)
  pending_count : (Ir.method_id, int ref) Hashtbl.t;
  mutable facts_acc : facts;
      (** running union of every fact ever merged anywhere — keeps
          [all_facts] and the per-DP carriers of the async heuristic a
          fold over one map *)
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

(* Predecessor arrays come from the call graph's shared per-method memo,
   which the forward engines of the run share too. *)
let create ?(dps = 1) prog cg =
  {
    prog;
    cg;
    dps;
    after = Hashtbl.create 64;
    param_relevant = Hashtbl.create 32;
    entry_globals = Hashtbl.create 32;
    touched = Hashtbl.create 128;
    queue = Queue.create ();
    facts_acc = Fact.Map.empty;
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
      let arr = Array.make (max 1 (Array.length (body_of t mid))) Fact.Map.empty in
      Hashtbl.add t.after mid arr;
      arr

let param_tags t mid p =
  match Hashtbl.find_opt t.param_relevant (mid, p) with
  | Some b -> b
  | None -> Tags.empty

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

(* The bindings [facts] adds to [dst], each with its DPs in both: at
   fixpoint most merges add nothing, and a passing wave adds a few, so
   the after-set takes them one at a time instead of a whole-map union. *)
let grown (dst : facts) (facts : facts) =
  Fact.Map.fold
    (fun f x acc ->
      match Fact.Map.find_opt f dst with
      | Some y when Tags.subset x y -> acc
      | Some y -> (f, Tags.union x y) :: acc
      | None -> (f, x) :: acc)
    facts []

let add_to_acc t f x =
  match Fact.Map.find_opt f t.facts_acc with
  | Some y when Tags.subset x y -> ()
  | Some y -> t.facts_acc <- Fact.Map.add f (Tags.union x y) t.facts_acc
  | None -> t.facts_acc <- Fact.Map.add f x t.facts_acc

(* [~carried]: every binding of [facts] is in the running union already —
   a transfer's output, whose facts come from its after-set or from its
   gen, which the transfer adds itself ([gen_out]). *)
let merge_at ?(carried = false) t mid idx (facts : facts) =
  let body = body_of t mid in
  if idx >= 0 && idx < Array.length body && not (Fact.Map.is_empty facts) then begin
    let arr = after_array t mid in
    let dst = arr.(idx) in
    let grew =
      if Fact.Map.is_empty dst then begin
        arr.(idx) <- facts;
        if not carried then Fact.Map.iter (add_to_acc t) facts;
        true
      end
      else
        match grown dst facts with
        | [] -> false
        | added ->
            arr.(idx) <-
              List.fold_left (fun m (f, x) -> Fact.Map.add f x m) dst added;
            if not carried then List.iter (fun (f, x) -> add_to_acc t f x) added;
            true
    in
    if grew then begin
      (* A fact-set growth event, charged to the method the engine is
         currently transferring (the producer). *)
      Profile.add_facts t.prof 1;
      enqueue t mid idx
    end
  end

let dp_tags t dps =
  List.fold_left
    (fun acc k ->
      if k < 0 || k >= t.dps then invalid_arg "Backward: DP out of range"
      else Tags.union acc (Tags.singleton k))
    Tags.empty dps

(** Inject facts as relevant at (i.e. just after) the given statement. *)
let inject_at ?(dps = [ 0 ]) t (sid : Ir.stmt_id) facts =
  merge_at t sid.Ir.sid_meth sid.Ir.sid_idx (tag facts (dp_tags t dps))

(* A method is transparent to pure-global injections when propagating
   Ffield/Fstatic/Fdb facts through it provably changes nothing: globals
   survive its body unchanged (no instance/static field stores kill or
   touch on them), no SQLite call can consume an Fdb fact, and no app
   callee can carry the injection deeper.  For such a method the injected
   globals flow straight back out as its (already-known) entry globals —
   zero touched statements, zero new facts — so the injection is skipped.
   It is what makes the filler bulk of an app (inert UI helpers) cost
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

(* [def]: the DPs for which the call's result is relevant.  Returns the
   generated facts and the DPs the statement is touched for. *)
let handle_invoke t mid set (sid : Ir.stmt_id) (i : Ir.invoke) ~def :
    facts * Tags.t =
  let base_fact () =
    match i.Ir.ibase with Some b -> [ Fact.local mid b ] | None -> []
  in
  let arg_facts () = List.concat_map (value_fact mid) i.Ir.iargs in
  let inputs () = base_fact () @ arg_facts () in
  let gen = ref Fact.Map.empty in
  let touched = ref Tags.empty in
  (* Touch the statement for the DPs [b], generating [fs ()] for them. *)
  let add fs b =
    if not (Tags.is_empty b) then begin
      touched := Tags.union !touched b;
      gen := union !gen (tag (fs ()) b)
    end
  in
  let sites = Callgraph.callsite_at t.cg sid in
  let app_callees = List.concat_map (fun cs -> cs.Callgraph.cs_callees) sites in
  if app_callees = [] then begin
    (* Library call, inverted semantic model: a relevant output (or
       receiver) makes all inputs relevant. *)
    let relevant () =
      match i.Ir.ibase with
      | Some b -> Tags.union def (root_tags set mid b.Ir.vname)
      | None -> def
    in
    let db_arg idx =
      match List.nth_opt i.Ir.iargs idx with
      | Some (Ir.Const (Ir.Cstr s)) -> Some s
      | Some _ | None -> None
    in
    match Api.model_of i with
    | Some Libmodel.Db_write ->
        (* A relevant table store makes the inserted values relevant; the
           DPs the table does not serve get the generic model. *)
        let table =
          match db_arg 0 with
          | Some table -> tags_of set (Fact.Fdb table)
          | None -> Tags.empty
        in
        add arg_facts table;
        add inputs (Tags.diff (relevant ()) table)
    | Some Libmodel.Db_query ->
        add
          (fun () ->
            match db_arg 0 with Some table -> [ Fact.Fdb table ] | None -> [])
          def;
        add inputs (Tags.diff (relevant ()) def)
    | Some Libmodel.Res_string ->
        (* Resource lookup: the result is an APK constant; keep the
           statement in the slice (the signature builder resolves the
           constant) but do not propagate into the integer id. *)
        add (fun () -> []) def
    | Some _ | None -> add inputs (relevant ())
  end
  else begin
    (* Application callees. *)
    let globals = Fact.globals_map set in
    List.iter
      (fun callee_id ->
        match meth_of t callee_id with
        | None -> ()
        | Some callee ->
            let returns = returns_of t callee_id callee in
            (* A relevant call result pulls the callee's returned values
               into the backward flow; the DPs' globals travel with it. *)
            if not (Tags.is_empty def) then begin
              touched := Tags.union !touched def;
              let g = restrict globals def in
              List.iter
                (fun r ->
                  match callee.Ir.m_body.(r) with
                  | Ir.Return (Some (Ir.Local rv)) ->
                      merge_at t callee_id r
                        (Fact.Map.add (Fact.local callee_id rv) def g)
                  | Ir.Return _ -> merge_at t callee_id r g
                  | _ -> ())
                returns
            end;
            (* The other DPs' globals enter at the returns, unless they
               would pass straight through. *)
            let g =
              if Tags.is_empty def then globals else restrict ~out:true globals def
            in
            if
              (not (Fact.Map.is_empty g))
              && not (globals_transparent t callee_id)
            then List.iter (fun r -> merge_at ~carried:true t callee_id r g) returns;
            (* Parameters already known relevant in the callee make the
               corresponding caller arguments relevant. *)
            List.iteri
              (fun k (p : Ir.var) ->
                add
                  (fun () ->
                    match List.nth_opt i.Ir.iargs k with
                    | Some v -> value_fact mid v
                    | None -> [])
                  (param_tags t callee_id p.Ir.vname))
              callee.Ir.m_params;
            add base_fact (param_tags t callee_id "this");
            (* Globals alive at the callee entry flow back to before the
               call. *)
            Option.iter
              (fun g -> gen := union !gen g)
              (Hashtbl.find_opt t.entry_globals callee_id))
      app_callees
  end;
  (!gen, !touched)

(* ------------------------------------------------------------------ *)
(* Statement transfer (reverse)                                       *)
(* ------------------------------------------------------------------ *)

let rhs_gen mid = function Ir.Invoke _ -> [] | e -> expr_gen mid e

(* [~merged]: the output flows into at least one predecessor, which puts
   the generated facts in an after-set — so they join the running union
   here, and the merges of the output skip it. *)
let transfer t mid idx (stmt : Ir.stmt) (set : facts) ~merged : facts =
  let sid = { Ir.sid_meth = mid; sid_idx = idx } in
  let gen_out set gen =
    if merged then Fact.Map.iter (add_to_acc t) gen;
    union set gen
  in
  let touch b gen =
    if not (Tags.is_empty b) then begin
      (match Hashtbl.find_opt t.touched sid with
      | Some old when Tags.subset b old -> ()
      | Some old -> Hashtbl.replace t.touched sid (Tags.union old b)
      | None -> Hashtbl.replace t.touched sid b);
      record_gen sid gen b
    end
  in
  (* Every fact a kill removes carries only DPs of the condition that
     fired, so kills apply to the whole map; gens carry the condition's
     DPs. *)
  match stmt with
  | Ir.Assign (Ir.Lvar v, Ir.Invoke i) ->
      let def = root_tags set mid v.Ir.vname in
      let gen, b = handle_invoke t mid set sid i ~def in
      touch b gen;
      (* Kill the definition after using it. *)
      let killed =
        if Tags.is_empty def then set else Fact.kill_local_map set mid v
      in
      gen_out killed gen
  | Ir.Assign (Ir.Lvar v, e) ->
      let def = root_tags set mid v.Ir.vname in
      if Tags.is_empty def then set
      else begin
        let gen = tag (expr_gen mid e) def in
        touch def gen;
        gen_out (Fact.kill_local_map set mid v) gen
      end
  | Ir.Assign (Ir.Lfield (x, f), rhs) ->
      let path = Fact.local_path mid x f.Ir.fname in
      let b =
        Tags.union (tags_of set path)
          (Tags.union
             (tags_of set (Fact.Ffield (f.Ir.fcls, f.Ir.fname)))
             (tags_of set (Fact.local mid x)))
      in
      if Tags.is_empty b then set
      else begin
        let gen = tag (rhs_gen mid rhs) b in
        touch b gen;
        gen_out (Fact.Map.remove path set) gen
      end
  | Ir.Assign (Ir.Lsfield f, rhs) ->
      let global = Fact.Fstatic (f.Ir.fcls, f.Ir.fname) in
      let b = tags_of set global in
      if Tags.is_empty b then set
      else begin
        let gen = tag (rhs_gen mid rhs) b in
        touch b gen;
        gen_out (Fact.Map.remove global set) gen
      end
  | Ir.Assign (Ir.Lelem (a, _), rhs) ->
      let b = tags_of set (Fact.local mid a) in
      if Tags.is_empty b then set
      else begin
        let gen = tag (rhs_gen mid rhs) b in
        touch b gen;
        gen_out set gen
      end
  | Ir.InvokeStmt i ->
      let gen, b = handle_invoke t mid set sid i ~def:Tags.empty in
      touch b gen;
      gen_out set gen
  | Ir.Return _ | Ir.If _ | Ir.Goto _ | Ir.Lab _ | Ir.Nop -> set

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let record_entry t mid (out : facts) =
  (* Reverse flow reached the method entry: record relevant parameters and
     globals, notify callers. *)
  match meth_of t mid with
  | None -> ()
  | Some m ->
      let changed = ref false in
      let param p =
        let b = root_tags out mid p in
        let prev = param_tags t mid p in
        if not (Tags.subset b prev) then begin
          Hashtbl.replace t.param_relevant (mid, p) (Tags.union prev b);
          changed := true
        end
      in
      if not m.Ir.m_static then param "this";
      List.iter (fun (p : Ir.var) -> param p.Ir.vname) m.Ir.m_params;
      let globals = Fact.globals_map out in
      let prev =
        Option.value (Hashtbl.find_opt t.entry_globals mid) ~default:Fact.Map.empty
      in
      let added = grown prev globals in
      if added <> [] then begin
        Hashtbl.replace t.entry_globals mid
          (List.fold_left (fun m (f, x) -> Fact.Map.add f x m) prev added);
        (* Entry globals derive from a transfer's output, whose generated
           facts may never be merged into any statement (entry statements
           have no predecessors) — fold them into the running union here. *)
        List.iter (fun (f, x) -> add_to_acc t f x) added;
        changed := true
      end;
      if !changed then
        List.iter
          (fun sid -> enqueue t sid.Ir.sid_meth sid.Ir.sid_idx)
          (Callgraph.callers t.cg mid)

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

let pending t =
  Hashtbl.fold (fun _ c acc -> acc + !c) t.pending_count 0

let run ?budget ?counted t =
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
                   match preds with
                   | None -> ()
                   | Some pred_arr ->
                       let into = pred_arr.(!idx) in
                       let out =
                         transfer t mid !idx body.(!idx) arr.(!idx)
                           ~merged:(into <> [])
                       in
                       if into = [] || !idx = 0 then record_entry t mid out;
                       List.iter (fun p -> merge_at ~carried:true t mid p out) into
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
  let left = pending t in
  if left > 0 then
    Resilience.Degrade.record_exhaustion ~phase:"slicing.backward"
      ~work_left:left budget
      "backward taint fixpoint stopped before the worklist drained; the \
       request slices are under-approximate";
  Metrics.incr m_steps ~by:!steps;
  (* Each counted DP's distinct facts, as its own engine would count
     them; the fold is not free, so only when telemetry is on. *)
  if Metrics.is_enabled Metrics.default then begin
    let counted =
      match counted with
      | Some dps -> dp_tags t dps
      | None -> dp_tags t (List.init t.dps Fun.id)
    in
    Metrics.incr m_facts
      ~by:
        (Fact.Map.fold
           (fun _ b n -> n + Tags.cardinal (Tags.inter b counted))
           t.facts_acc 0)
  end

let touched_stmts t =
  Hashtbl.fold (fun sid _ acc -> Ir.Stmt_set.add sid acc) t.touched
    Ir.Stmt_set.empty

let all_facts t =
  Fact.Map.fold (fun f _ acc -> Fact.Set.add f acc) t.facts_acc Fact.Set.empty

let touched_by_dp t =
  let by_dp = Array.make t.dps Ir.Stmt_set.empty in
  Hashtbl.iter
    (fun sid b -> Tags.iter (fun k -> by_dp.(k) <- Ir.Stmt_set.add sid by_dp.(k)) b)
    t.touched;
  by_dp

let facts_by_dp t =
  let by_dp = Array.make t.dps Fact.Set.empty in
  Fact.Map.iter
    (fun f b -> Tags.iter (fun k -> by_dp.(k) <- Fact.Set.add f by_dp.(k)) b)
    t.facts_acc;
  by_dp
