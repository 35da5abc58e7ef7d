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

   The fixpoint state lives in one record per method (a slot: after-sets,
   pending flags, touched DP sets, relevant parameters, entry globals),
   found with one table lookup per method visit, and the worklist is
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

  (* Index of the lowest set bit of a nonzero word, by halving. *)
  let lowest w =
    let rec go w k step =
      if step = 0 then k
      else if w land ((1 lsl step) - 1) = 0 then go (w lsr step) (k + step) (step / 2)
      else go w k (step / 2)
    in
    go w 0 32

  let iter f a =
    Array.iteri
      (fun i w ->
        let w = ref w in
        while !w <> 0 do
          f ((i * width) + lowest !w);
          w := !w land (!w - 1)
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
let record_gen mid idx (gen : facts) touched =
  if Provenance.is_enabled Provenance.default then
    let sid = { Ir.sid_meth = mid; sid_idx = idx } in
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

(* One method's share of the fixpoint state.  The arrays are indexed by
   statement and sized [max 1 (body length)]; a method the program does
   not define gets a slot that transfers nothing. *)
type slot = {
  mid : Ir.method_id;
  meth : Ir.meth option;
  body : Ir.stmt array;
  after : facts array;
      (** facts relevant after each statement (reverse-flow entry set) *)
  pending : bool array;
      (** per-statement pending flags (the deduplicated worklist) *)
  mutable count : int;  (** pending flags set *)
  touched : Tags.t array;  (** DPs each statement is in the slice of *)
  mutable params : (string * Tags.t) list;
      (** parameters (or "this") found relevant at method entry *)
  mutable entry_globals : facts;
      (** global facts alive at the method entry, flowing back to callers *)
  returns : int list Lazy.t;  (** [Cfg.return_indices] *)
  preds : int list array option Lazy.t;
      (** statement predecessors, from the call graph's shared memo *)
  sites : Callgraph.callsite list array Lazy.t;
      (** call-site records by statement; resolving them is the call
          graph's work, so it waits for the first invoke transfer *)
  mutable transparent : bool option;  (** see [globals_transparent] *)
}

type t = {
  prog : Prog.t;
  cg : Callgraph.t;
  dps : int;  (** the DPs served are 0 .. dps - 1 *)
  slots : (Ir.method_id, slot) Hashtbl.t;
  queue : slot Queue.t;  (** methods with pending statements *)
  mutable facts_acc : facts;
      (** running union of every fact ever merged anywhere — keeps
          [all_facts] and the per-DP carriers of the async heuristic a
          fold over one map *)
  prof : Ir.method_id Profile.cursor;
      (** per-method cost attribution for the fixpoint loop *)
}

let create ?(dps = 1) prog cg =
  {
    prog;
    cg;
    dps;
    slots = Hashtbl.create 64;
    queue = Queue.create ();
    facts_acc = Fact.Map.empty;
    prof =
      Profile.cursor ~phase:"slicing.backward" ~render:Ir.Method_id.to_string
        ();
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
          after = Array.make n Fact.Map.empty;
          pending = Array.make n false;
          count = 0;
          touched = Array.make n Tags.empty;
          params = [];
          entry_globals = Fact.Map.empty;
          returns =
            lazy
              (match meth with
              | Some m -> Extr_cfg.Cfg.return_indices m
              | None -> []);
          preds = lazy (Callgraph.stmt_preds t.cg mid);
          sites = lazy (Callgraph.sites_by_stmt t.cg mid);
          transparent = None;
        }
      in
      Hashtbl.add t.slots mid s;
      s

let param_tags s p =
  match List.assoc_opt p s.params with Some b -> b | None -> Tags.empty

(* The worklist is a queue of methods, each with per-statement pending
   flags.  Draining a method sweeps its flags from the highest index down
   — the direction reverse flow moves — so a fact wave crosses the whole
   body in one pass instead of one growth-requeue cycle per statement. *)
let enqueue t s idx =
  if idx < Array.length s.pending && not s.pending.(idx) then begin
    s.pending.(idx) <- true;
    if s.count = 0 then Queue.add s t.queue;
    s.count <- s.count + 1
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
let merge_at ?(carried = false) t s idx (facts : facts) =
  if idx >= 0 && idx < Array.length s.body && not (Fact.Map.is_empty facts) then begin
    let dst = s.after.(idx) in
    let grew =
      if Fact.Map.is_empty dst then begin
        s.after.(idx) <- facts;
        if not carried then Fact.Map.iter (add_to_acc t) facts;
        true
      end
      else
        match grown dst facts with
        | [] -> false
        | added ->
            s.after.(idx) <-
              List.fold_left (fun m (f, x) -> Fact.Map.add f x m) dst added;
            if not carried then List.iter (fun (f, x) -> add_to_acc t f x) added;
            true
    in
    if grew then begin
      (* A fact-set growth event, charged to the method the engine is
         currently transferring (the producer). *)
      Profile.add_facts t.prof 1;
      enqueue t s idx
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
  merge_at t (slot_of t sid.Ir.sid_meth) sid.Ir.sid_idx (tag facts (dp_tags t dps))

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
  match callee.transparent with
  | Some b -> b
  | None ->
      let b =
        match callee.meth with
        | None -> true
        | Some m ->
            Callgraph.callsites t.cg callee.mid = []
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
      callee.transparent <- Some b;
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
let handle_invoke t s idx set (i : Ir.invoke) ~def : facts * Tags.t =
  let mid = s.mid in
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
  let sites =
    let by_stmt = Lazy.force s.sites in
    if idx < Array.length by_stmt then by_stmt.(idx) else []
  in
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
        let cs = slot_of t callee_id in
        match cs.meth with
        | None -> ()
        | Some callee ->
            let returns = Lazy.force cs.returns in
            (* A relevant call result pulls the callee's returned values
               into the backward flow; the DPs' globals travel with it. *)
            if not (Tags.is_empty def) then begin
              touched := Tags.union !touched def;
              let g = restrict globals def in
              List.iter
                (fun r ->
                  match callee.Ir.m_body.(r) with
                  | Ir.Return (Some (Ir.Local rv)) ->
                      merge_at t cs r
                        (Fact.Map.add (Fact.local callee_id rv) def g)
                  | Ir.Return _ -> merge_at t cs r g
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
              && not (globals_transparent t cs)
            then List.iter (fun r -> merge_at ~carried:true t cs r g) returns;
            (* Parameters already known relevant in the callee make the
               corresponding caller arguments relevant. *)
            List.iteri
              (fun k (p : Ir.var) ->
                add
                  (fun () ->
                    match List.nth_opt i.Ir.iargs k with
                    | Some v -> value_fact mid v
                    | None -> [])
                  (param_tags cs p.Ir.vname))
              callee.Ir.m_params;
            add base_fact (param_tags cs "this");
            (* Globals alive at the callee entry flow back to before the
               call. *)
            gen := union !gen cs.entry_globals)
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
let transfer t s idx (stmt : Ir.stmt) (set : facts) ~merged : facts =
  let mid = s.mid in
  let gen_out set gen =
    if merged then Fact.Map.iter (add_to_acc t) gen;
    union set gen
  in
  let touch b gen =
    if not (Tags.is_empty b) then begin
      let old = s.touched.(idx) in
      if not (Tags.subset b old) then s.touched.(idx) <- Tags.union old b;
      record_gen mid idx gen b
    end
  in
  (* Every fact a kill removes carries only DPs of the condition that
     fired, so kills apply to the whole map; gens carry the condition's
     DPs. *)
  match stmt with
  | Ir.Assign (Ir.Lvar v, Ir.Invoke i) ->
      let def = root_tags set mid v.Ir.vname in
      let gen, b = handle_invoke t s idx set i ~def in
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
      let gen, b = handle_invoke t s idx set i ~def:Tags.empty in
      touch b gen;
      gen_out set gen
  | Ir.Return _ | Ir.If _ | Ir.Goto _ | Ir.Lab _ | Ir.Nop -> set

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let record_entry t s (out : facts) =
  (* Reverse flow reached the method entry: record relevant parameters and
     globals, notify callers. *)
  match s.meth with
  | None -> ()
  | Some m ->
      let mid = s.mid in
      let changed = ref false in
      let param p =
        let b = root_tags out mid p in
        let prev = param_tags s p in
        if not (Tags.subset b prev) then begin
          s.params <- (p, Tags.union prev b) :: List.remove_assoc p s.params;
          changed := true
        end
      in
      if not m.Ir.m_static then param "this";
      List.iter (fun (p : Ir.var) -> param p.Ir.vname) m.Ir.m_params;
      let globals = Fact.globals_map out in
      let prev = s.entry_globals in
      let added = grown prev globals in
      if added <> [] then begin
        s.entry_globals <-
          List.fold_left (fun m (f, x) -> Fact.Map.add f x m) prev added;
        (* Entry globals derive from a transfer's output, whose generated
           facts may never be merged into any statement (entry statements
           have no predecessors) — fold them into the running union here. *)
        List.iter (fun (f, x) -> add_to_acc t f x) added;
        changed := true
      end;
      if !changed then
        List.iter
          (fun sid -> enqueue t (slot_of t sid.Ir.sid_meth) sid.Ir.sid_idx)
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

let pending t = Hashtbl.fold (fun _ s acc -> acc + s.count) t.slots 0

let run ?budget ?counted t =
  let budget =
    match budget with Some b -> b | None -> standalone_budget ()
  in
  let steps = ref 0 in
  let stopped = ref false in
  let drain s =
    if s.count > 0 then begin
      let preds = Lazy.force s.preds in
      let flags = s.pending in
      while s.count > 0 && not !stopped do
        (* One downward sweep; facts merged below the cursor are caught
           in the same pass, merges above it start the next wave. *)
        let idx = ref (Array.length flags - 1) in
        while !idx >= 0 && not !stopped do
          (if flags.(!idx) then
             if Resilience.Budget.spend budget then begin
               flags.(!idx) <- false;
               s.count <- s.count - 1;
               incr steps;
               Profile.visit t.prof s.mid;
               Profile.spend t.prof 1;
               if !idx < Array.length s.body then begin
                 match preds with
                 | None -> ()
                 | Some pred_arr ->
                     let into = pred_arr.(!idx) in
                     let out =
                       transfer t s !idx s.body.(!idx) s.after.(!idx)
                         ~merged:(into <> [])
                     in
                     if into = [] || !idx = 0 then record_entry t s out;
                     List.iter (fun p -> merge_at ~carried:true t s p out) into
               end
             end
             else stopped := true);
          decr idx
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

(* Fold [f] over every touched statement with its DPs. *)
let fold_touched f t acc =
  Hashtbl.fold
    (fun _ s acc ->
      let acc = ref acc in
      Array.iteri
        (fun idx b ->
          if not (Tags.is_empty b) then
            acc := f { Ir.sid_meth = s.mid; sid_idx = idx } b !acc)
        s.touched;
      !acc)
    t.slots acc

let touched_stmts t =
  fold_touched (fun sid _ acc -> Ir.Stmt_set.add sid acc) t Ir.Stmt_set.empty

let all_facts t =
  Fact.Map.fold (fun f _ acc -> Fact.Set.add f acc) t.facts_acc Fact.Set.empty

let touched_by_dp t =
  let by_dp = Array.make t.dps Ir.Stmt_set.empty in
  fold_touched
    (fun sid b () -> Tags.iter (fun k -> by_dp.(k) <- Ir.Stmt_set.add sid by_dp.(k)) b)
    t ();
  by_dp

(* [Ffield] keys are contiguous in the fact order ([Ffield ("", "")] is
   their least), so only that range of the running union is walked, in
   ascending order. *)
let field_carriers t =
  let by_dp = Array.make t.dps [] in
  let rec go seq =
    match seq () with
    | Seq.Cons ((Fact.Ffield (c, f), b), rest) ->
        Tags.iter (fun k -> by_dp.(k) <- (c, f) :: by_dp.(k)) b;
        go rest
    | Seq.Cons _ | Seq.Nil -> ()
  in
  go (Fact.Map.to_seq_from (Fact.Ffield ("", "")) t.facts_acc);
  Array.map List.rev by_dp
