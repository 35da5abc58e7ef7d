(* The flow-sensitive signature-building interpretation (§3.2).  Starting
   from each event origin (activity lifecycle methods, registered UI/timer/
   push callbacks), the interpreter executes the application abstractly:
   basic blocks are processed in topological order of the intra-procedural
   control-flow graph, signature databases (variable → abstract value, plus
   a functional heap) merge at confluence points with disjunction, and
   loop-variant string parts are widened with [rep].  Demarcation-point
   calls finalize transactions; each call-string context yields its own
   transaction, which is how request/response pairs stay disjoint under
   code reuse (§3.3, Figure 5). *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Cfg = Extr_cfg.Cfg
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Libmodel = Extr_semantics.Libmodel
module Callbacks = Extr_semantics.Callbacks
module Strsig = Extr_siglang.Strsig
module Index = Extr_ir.Index
module Slicer = Extr_slicing.Slicer
module Apk = Extr_apk.Apk
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience
open Absval

let src =
  Logs.Src.create "extractocol.interp"
    ~doc:"Flow-sensitive signature-building interpretation"

module Log = (val Logs.src_log src : Logs.LOG)

let m_stmts =
  Metrics.counter ~help:"statements interpreted abstractly" "interp.statements"

let m_txs = Metrics.counter ~help:"raw transactions emitted" "interp.transactions"

let m_callbacks =
  Metrics.counter ~help:"registered callbacks fired" "interp.callbacks_fired"

type options = {
  io_max_depth : int;  (** call-inlining depth bound *)
  io_event_heap : bool;
      (** persist receiver heap state from registration into callbacks —
          the behavioural analogue of the §3.4 asynchronous-event
          heuristic.  Off: callbacks run on fresh objects (FlowDroid's
          arbitrary-ordering assumption) and heap-carried request parts
          are lost. *)
  io_restrict_to_slices : bool;
      (** only follow calls into methods relevant to some slice *)
  io_context_sensitive : bool;
      (** distinct transaction per call string; off = one transaction per
          demarcation statement (the Figure-5 failure mode, for the
          pairing ablation) *)
  io_intents : bool;
      (** resolve constant-action intent-service dispatch (extension;
          off reproduces the paper's §4 limitation) *)
  io_naive_order : bool;
      (** process blocks in reverse topological order and iterate to a
          fixpoint — the slow worklist-style baseline of §3.2's
          scalability argument (ablation only) *)
}

let default_options =
  {
    io_max_depth = 24;
    io_event_heap = true;
    io_restrict_to_slices = true;
    io_context_sensitive = true;
    io_intents = false;
    io_naive_order = false;
  }

type pending = {
  pe_meth : Ir.method_id;
  pe_this : Absval.t;
  pe_event : Callbacks.event;
}

(* A call site's resolution, kept in its method's plan: the library model
   on the first visit, the application callees (explicit edges) on first
   need — an [AsyncTask.execute] never asks the call graph. *)
type call = {
  c_model : Libmodel.t option;
  mutable c_callees : Ir.method_id list option;
}

(* What executing a method needs besides the state, built on its first
   call: the CFG, the block order, which blocks head loops, and its call
   sites by statement. *)
type plan = {
  pl_meth : Ir.meth;
  pl_cfg : Cfg.t;
  pl_order : int list;  (** blocks in visiting order *)
  pl_header : bool array;  (** loop-header blocks *)
  pl_has_loops : bool;
  pl_calls : call option array;
}

type t = {
  prog : Prog.t;
  cg : Callgraph.t;
  apk : Apk.t;
  opts : options;
  relevant : Ir.Method_set.t option;  (** method filter from slices *)
  txs : (int, Txn.t) Hashtbl.t;
  mutable tx_count : int;
  tx_cache : (string, int) Hashtbl.t;  (** context key → transaction id *)
  db : (string, prov list) Hashtbl.t;
  statics : (string * string, Absval.t) Hashtbl.t;
  mutable pending : pending list;
  mutable fired : (Ir.method_id * Callbacks.event) list;  (** callbacks already run *)
  mutable origin : Ir.method_id;
  mutable callstack : Ir.stmt_id list;
  mutable active : Ir.Method_set.t;  (** recursion guard *)
  mutable steps : int;  (** statements interpreted (telemetry) *)
  budget : Resilience.Budget.t;  (** fuel / depth / deadline governance *)
  plans : (Ir.method_id, plan option) Hashtbl.t;
  prof : Ir.method_id Profile.cursor;
      (** per-method cost attribution; statement-granular visits mean the
          time between two statements is charged to the method executing
          them, so inlined callees collect their own (self) time *)
}

(* Environments: the per-block signature database of §3.2 mapping each
   variable to its abstract value; paired with the functional heap. *)
module Env = Map.Make (String)

type state = { vars : Absval.t Env.t; sheap : heap }

(* Standalone interpreters (tests, bench) get a private fuel-only budget
   matching the historical 3M-statement bound; the pipeline passes its
   shared per-run budget instead. *)
let standalone_budget () =
  Resilience.Budget.create
    ~limits:
      {
        Resilience.Budget.unlimited with
        Resilience.Budget.bl_max_steps = 3_000_000;
      }
    ()

(** Methods relevant to slicing: methods containing slice statements plus
    everything that can reach them in the call graph. *)
let relevant_methods ?(intents = false) (cg : Callgraph.t)
    (slices : Slicer.result) =
  let base =
    List.fold_left
      (fun acc (sl : Slicer.slice) ->
        Ir.Stmt_set.fold
          (fun sid acc -> Ir.Method_set.add sid.Ir.sid_meth acc)
          sl.Slicer.sl_stmts acc)
      Ir.Method_set.empty
      (slices.Slicer.r_request @ slices.Slicer.r_response)
  in
  let result = ref base in
  (* Explicit work-stack (deep caller chains must not blow the stack);
     callers are pulled through the lazy call-graph view, so only methods
     around the slices are ever resolved. *)
  let pull mid =
    let stack = ref [ mid ] in
    let rec drain () =
      match !stack with
      | [] -> ()
      | m :: rest ->
          stack := rest;
          List.iter
            (fun (sid : Ir.stmt_id) ->
              if not (Ir.Method_set.mem sid.Ir.sid_meth !result) then begin
                result := Ir.Method_set.add sid.Ir.sid_meth !result;
                stack := sid.Ir.sid_meth :: !stack
              end)
            (Callgraph.callers cg m);
          drain ()
    in
    drain ()
  in
  Ir.Method_set.iter pull base;
  (* Intent extension: startService is implicit control flow the call
     graph does not carry; when a relevant intent service exists, the
     dispatching methods (and their callers) become relevant too. *)
  let handler mid = mid.Ir.id_name = Callbacks.on_handle_intent in
  if intents && Ir.Method_set.exists handler !result then
    List.iter
      (fun (site : Index.site) ->
        let mid = site.Index.st_stmt.Ir.sid_meth in
        if
          Api.model_of site.Index.st_invoke = Some Libmodel.Start_service
          && not (Ir.Method_set.mem mid !result)
        then begin
          result := Ir.Method_set.add mid !result;
          pull mid
        end)
      (List.concat_map
         (Index.sites_invoking (Callgraph.index cg))
         (Api.method_names (( = ) Libmodel.Start_service)));
  !result

let create ?(options = default_options) ?budget ?slices prog cg (apk : Apk.t) :
    t =
  let relevant =
    match (options.io_restrict_to_slices, slices) with
    | true, Some s ->
        Some (relevant_methods ~intents:options.io_intents cg s)
    | _, _ -> None
  in
  let budget =
    match budget with Some b -> b | None -> standalone_budget ()
  in
  {
    prog;
    cg;
    apk;
    opts = options;
    relevant;
    txs = Hashtbl.create 32;
    tx_count = 0;
    tx_cache = Hashtbl.create 32;
    db = Hashtbl.create 8;
    statics = Hashtbl.create 16;
    pending = [];
    fired = [];
    origin = { Ir.id_cls = "?"; id_name = "?" };
    callstack = [];
    active = Ir.Method_set.empty;
    steps = 0;
    budget;
    plans = Hashtbl.create 32;
    prof =
      Profile.cursor ~phase:"interpretation" ~render:Ir.Method_id.to_string ();
  }

let plan_of t mid =
  match Hashtbl.find_opt t.plans mid with
  | Some p -> p
  | None ->
      let p =
        Option.map
          (fun (m : Ir.meth) ->
            let cfg = Cfg.build m in
            let loops = Cfg.loops cfg in
            let order = Cfg.topological_order cfg loops in
            let headers = loops.Cfg.headers in
            let header = Array.make (Cfg.n_blocks cfg) false in
            List.iter (fun b -> header.(b) <- true) headers;
            {
              pl_meth = m;
              pl_cfg = cfg;
              pl_order = (if t.opts.io_naive_order then List.rev order else order);
              pl_header = header;
              pl_has_loops = headers <> [] || t.opts.io_naive_order;
              pl_calls = Array.make (Array.length m.Ir.m_body) None;
            })
          (Prog.find_method t.prog mid)
      in
      Hashtbl.add t.plans mid p;
      p

let call_at plan idx (i : Ir.invoke) =
  match plan.pl_calls.(idx) with
  | Some c -> c
  | None ->
      let c = { c_model = Api.model_of i; c_callees = None } in
      plan.pl_calls.(idx) <- Some c;
      c

let callees_at t c (sid : Ir.stmt_id) =
  match c.c_callees with
  | Some l -> l
  | None ->
      let l =
        List.concat_map
          (fun cs ->
            if cs.Callgraph.cs_implicit then [] else cs.Callgraph.cs_callees)
          (Callgraph.callsite_at t.cg sid)
      in
      c.c_callees <- Some l;
      l

(* ------------------------------------------------------------------ *)
(* Transaction anchoring                                              *)
(* ------------------------------------------------------------------ *)

let context_key t (sid : Ir.stmt_id) =
  let stack =
    if t.opts.io_context_sensitive then
      String.concat ";" (List.map Ir.Stmt_id.to_string t.callstack)
    else ""
  in
  let origin =
    if t.opts.io_context_sensitive then Ir.Method_id.to_string t.origin else ""
  in
  Printf.sprintf "%s|%s|%s" origin stack (Ir.Stmt_id.to_string sid)

let new_tx t ~dp : Txn.t =
  let key = context_key t dp in
  match Hashtbl.find_opt t.tx_cache key with
  | Some id ->
      (* Re-execution (later pass / loop iteration): reset the request
         side, keep the id and the monotone response accumulator. *)
      let tx = Hashtbl.find t.txs id in
      tx.Txn.tx_meth <- Extr_httpmodel.Http.GET;
      tx.Txn.tx_uri <- Strsig.unknown;
      tx.Txn.tx_headers <- [];
      tx.Txn.tx_body <- Extr_siglang.Msgsig.Bnone;
      tx.Txn.tx_deps <- [];
      tx.Txn.tx_dynamic_uri <- false;
      tx
  | None ->
      let id = t.tx_count in
      t.tx_count <- id + 1;
      (* A raw transaction is the interpreter's "fact produced". *)
      Profile.add_facts t.prof 1;
      let tx = Txn.create ~id ~dp ~origin:t.origin in
      Hashtbl.replace t.txs id tx;
      Hashtbl.replace t.tx_cache key id;
      tx

(* ------------------------------------------------------------------ *)
(* State merging                                                      *)
(* ------------------------------------------------------------------ *)

let alt_sig a b = Strsig.alt [ a; b ]

let merge_states ?(combine_sig = alt_sig) (s1 : state) (s2 : state) : state =
  let mval, final_heap = state_merger ~combine_sig s1.sheap s2.sheap in
  let vars = Env.union (fun _ a b -> Some (mval a b)) s1.vars s2.vars in
  { vars; sheap = final_heap () }

let widen_states (old_s : state) (new_s : state) : state =
  merge_states ~combine_sig:widen_sig old_s new_s

let states_equal (s1 : state) (s2 : state) =
  Env.equal (fun a b -> equal_val s1.sheap s2.sheap a b) s1.vars s2.vars

(* ------------------------------------------------------------------ *)
(* Abstract evaluation                                                *)
(* ------------------------------------------------------------------ *)

let eval_const = function
  | Ir.Cint n -> Vint (Some n)
  | Ir.Cbool b -> Vbool (Some b)
  | Ir.Cstr s -> str_lit s
  | Ir.Cnull -> Vnull

let eval_value vars = function
  | Ir.Const c -> eval_const c
  | Ir.Local v -> (
      match Env.find_opt v.Ir.vname vars with Some x -> x | None -> Vtop)

let eval_binop op a b =
  match (op, a, b) with
  | Ir.Add, Vint (Some x), Vint (Some y) -> Vint (Some (x + y))
  | Ir.Sub, Vint (Some x), Vint (Some y) -> Vint (Some (x - y))
  | Ir.Mul, Vint (Some x), Vint (Some y) -> Vint (Some (x * y))
  | Ir.Div, Vint (Some x), Vint (Some y) when y <> 0 -> Vint (Some (x / y))
  | (Ir.Add | Ir.Sub | Ir.Mul | Ir.Div), _, _ -> Vint None
  | (Ir.Eq | Ir.Ne | Ir.Lt | Ir.Le | Ir.Gt | Ir.Ge | Ir.And | Ir.Or), _, _ ->
      Vbool None

(** Read an instance field abstractly; reflection-deserialized objects
    (gson) turn field reads into response-cursor accesses. *)
let read_field t (href : heap ref) ~(sid : Ir.stmt_id) (objval : Absval.t)
    (f : Ir.field_ref) : Absval.t =
  let typed_default () =
    match f.Ir.fty with
    | Ir.Int -> Vint None
    | Ir.Bool -> Vbool None
    | Ir.Void | Ir.Str | Ir.Obj _ | Ir.Arr _ -> Vtop
  in
  let record_access cu' =
    if Provenance.is_enabled Provenance.default then
      Provenance.record_fragment Provenance.default ~tx:cu'.cu_tx
        ~part:("response:" ^ String.concat "." (path_of_steps cu'.cu_path))
        ~rule:"gson-field" ~stmt:sid
  in
  match objval with
  | Vobj o -> (
      match hslot href o "__gson_cursor" with
      | Some (Vcursor cu) ->
          let cu' = { cu with cu_path = cu.cu_path @ [ Sfield f.Ir.fname ] } in
          (match Hashtbl.find_opt t.txs cu.cu_tx with
          | Some tx -> (
              record_access cu';
              match f.Ir.fty with
              | Ir.Obj _ | Ir.Arr _ -> Respacc.record_nav tx.Txn.tx_resp cu'
              | Ir.Int -> Respacc.record_leaf tx.Txn.tx_resp cu' Respacc.Knum
              | Ir.Bool -> Respacc.record_leaf tx.Txn.tx_resp cu' Respacc.Kbool
              | Ir.Str | Ir.Void ->
                  Respacc.record_leaf tx.Txn.tx_resp cu' Respacc.Kstr)
          | None -> ());
          (match f.Ir.fty with
          | Ir.Int -> Vint None
          | Ir.Bool -> Vbool None
          | Ir.Obj cls when not (Api.is_library_class cls) ->
              let nested = halloc href cls in
              hset href nested "__gson_cursor" (Vcursor cu');
              Vobj nested
          | Ir.Str | Ir.Void | Ir.Obj _ | Ir.Arr _ ->
              str_of_sig ~prov:[ prov_of_cursor cu' ] Strsig.unknown)
      | _ -> (
          match hslot href o f.Ir.fname with
          | Some v -> v
          | None -> typed_default ()))
  | Vcursor cu ->
      (* Direct field access into a parsed response value. *)
      let cu' = { cu with cu_path = cu.cu_path @ [ Sfield f.Ir.fname ] } in
      (match Hashtbl.find_opt t.txs cu.cu_tx with
      | Some tx ->
          record_access cu';
          Respacc.record_leaf tx.Txn.tx_resp cu' Respacc.Kstr
      | None -> ());
      str_of_sig ~prov:[ prov_of_cursor cu' ] Strsig.unknown
  | Vtop | Vnull | Vbool _ | Vint _ | Vstr _ | Vlist _ | Vpair _ ->
      typed_default ()

(* ------------------------------------------------------------------ *)
(* Method execution                                                   *)
(* ------------------------------------------------------------------ *)

(** Execute a method abstractly from the given heap; returns the merged
    return value and the heap at exit. *)
let rec exec_method t ~depth ~(heap : heap) (mid : Ir.method_id)
    ~(this : Absval.t option) ~(args : Absval.t list) : Absval.t * heap =
  if
    (not (Resilience.Budget.depth_ok t.budget ~depth))
    || depth > t.opts.io_max_depth
    || Ir.Method_set.mem mid t.active
  then (Vtop, heap)
  else
    match plan_of t mid with
    | Some plan ->
        let meth = plan.pl_meth and cfg = plan.pl_cfg in
        t.active <- Ir.Method_set.add mid t.active;
        let initial =
          let vars = ref Env.empty in
          List.iteri
            (fun k (p : Ir.var) ->
              let v = Option.value (List.nth_opt args k) ~default:Vtop in
              vars := Env.add p.Ir.vname v !vars)
            meth.Ir.m_params;
          (match this with Some v -> vars := Env.add "this" v !vars | None -> ());
          { vars = !vars; sheap = heap }
        in
        let nb = Cfg.n_blocks cfg in
        let block_out : state option array = Array.make nb None in
        let header_in : state option array = Array.make nb None in
        let rets : (Absval.t * heap) list ref = ref [] in
        (* At most 3 sweeps over a CFG with loops; the naive-order
           ablation iterates up to 20. *)
        let passes =
          if t.opts.io_naive_order then 20
          else if plan.pl_has_loops then 3
          else 1
        in
        let changed = ref true in
        let pass = ref 0 in
        while !changed && !pass < passes do
          changed := false;
          incr pass;
          rets := [];
          List.iter
            (fun b ->
              let pred_states =
                List.filter_map (fun p -> block_out.(p)) cfg.Cfg.preds.(b)
              in
              let state_in =
                if plan.pl_header.(b) then begin
                  (* Loop headers widen each incoming state against the
                     previous header state so textual growth becomes rep
                     instead of an ever-growing disjunction (§3.2). *)
                  match header_in.(b) with
                  | Some old_s ->
                      let widened =
                        List.fold_left widen_states old_s pred_states
                      in
                      let widened =
                        if b = 0 then widen_states widened initial else widened
                      in
                      header_in.(b) <- Some widened;
                      widened
                  | None ->
                      let s0 =
                        match (b, pred_states) with
                        | 0, ss -> List.fold_left merge_states initial ss
                        | _, [] -> { initial with vars = Env.empty }
                        | _, s :: ss -> List.fold_left merge_states s ss
                      in
                      header_in.(b) <- Some s0;
                      s0
                end
                else
                  match (b, pred_states) with
                  | 0, [] -> initial
                  | 0, ss -> List.fold_left merge_states initial ss
                  | _, [] -> { initial with vars = Env.empty }
                  | _, s :: ss -> List.fold_left merge_states s ss
              in
              let out = exec_block t ~depth mid plan b state_in rets in
              match block_out.(b) with
              | Some prev when states_equal prev out -> ()
              | Some _ | None ->
                  block_out.(b) <- Some out;
                  changed := true)
            plan.pl_order
        done;
        t.active <- Ir.Method_set.remove mid t.active;
        (* Merge the return values and exit heaps. *)
        let exit_heap =
          match !rets with
          | [] -> (
              match
                List.rev (List.filter_map Fun.id (Array.to_list block_out))
              with
              | last :: _ -> last.sheap
              | [] -> heap)
          | (_, h) :: rest ->
              List.fold_left
                (fun acc (_, h') ->
                  let _, final = state_merger ~combine_sig:alt_sig acc h' in
                  final ())
                h rest
        in
        let ret_val =
          match !rets with
          | [] -> Vnull
          | (r, _) :: rest ->
              List.fold_left
                (fun acc (r', h') ->
                  let mval, _ = state_merger ~combine_sig:alt_sig exit_heap h' in
                  mval acc r')
                r rest
        in
        (ret_val, exit_heap)
    | None -> (Vtop, heap)

and exec_block t ~depth mid plan b (state_in : state) rets : state =
  (* Budget exhaustion bails at block granularity: a block either runs
     whole or not at all, so no partially-updated signature database is
     ever merged downstream.  (The old per-statement fuel guard silently
     skipped individual statements mid-block, corrupting env/heap state.) *)
  if not (Resilience.Budget.alive t.budget) then state_in
  else begin
  let body = plan.pl_meth.Ir.m_body in
  let href = ref state_in.sheap in
  let vars = ref state_in.vars in
  let blk = plan.pl_cfg.Cfg.blocks.(b) in
  for idx = blk.Cfg.b_first to blk.Cfg.b_last do
    ignore (Resilience.Budget.spend t.budget : bool);
    t.steps <- t.steps + 1;
    Profile.visit t.prof mid;
    Profile.spend t.prof 1;
    begin
      let sid = { Ir.sid_meth = mid; sid_idx = idx } in
      match body.(idx) with
      | Ir.Assign (lhs, rhs) -> (
          let v = eval_expr t ~depth plan href !vars sid rhs in
          match lhs with
          | Ir.Lvar x -> vars := Env.add x.Ir.vname v !vars
          | Ir.Lfield (x, f) -> (
              match Env.find_opt x.Ir.vname !vars with
              | Some (Vobj o) -> hset href o f.Ir.fname v
              | Some _ | None -> ())
          | Ir.Lsfield f -> Hashtbl.replace t.statics (f.Ir.fcls, f.Ir.fname) v
          | Ir.Lelem (a, _) -> (
              match Env.find_opt a.Ir.vname !vars with
              | Some (Vobj o) ->
                  let items =
                    match hslot href o "items" with
                    | Some (Vlist l) -> l
                    | _ -> []
                  in
                  hset href o "items" (Vlist (items @ [ v ]))
              | Some _ | None -> ()))
      | Ir.InvokeStmt i -> ignore (eval_invoke t ~depth plan href !vars sid i)
      | Ir.Return v ->
          (match v with
          | Some value -> rets := (eval_value !vars value, !href) :: !rets
          | None -> rets := (Vnull, !href) :: !rets)
      | Ir.If _ | Ir.Goto _ | Ir.Lab _ | Ir.Nop -> ()
    end
  done;
  { vars = !vars; sheap = !href }
  end

and eval_expr t ~depth plan href vars sid (e : Ir.expr) : Absval.t =
  match e with
  | Ir.Val v -> eval_value vars v
  | Ir.Binop (op, a, b) -> eval_binop op (eval_value vars a) (eval_value vars b)
  | Ir.New cls -> Vobj (halloc href cls)
  | Ir.NewArr (_, _) ->
      let o = halloc href "array" in
      hset href o "items" (Vlist []);
      Vobj o
  | Ir.IField (x, f) -> read_field t href ~sid (eval_value vars (Ir.Local x)) f
  | Ir.SField f -> (
      match Hashtbl.find_opt t.statics (f.Ir.fcls, f.Ir.fname) with
      | Some v -> v
      | None -> Vtop)
  | Ir.AElem (a, i) -> (
      match Env.find_opt a.Ir.vname vars with
      | Some (Vobj o) -> (
          match (hslot href o "items", eval_value vars i) with
          | Some (Vlist l), Vint (Some n) when n >= 0 && n < List.length l ->
              List.nth l n
          | Some (Vlist (x :: rest)), _ ->
              let mval, final = state_merger ~combine_sig:alt_sig !href !href in
              let r = List.fold_left mval x rest in
              href := final ();
              r
          | _, _ -> Vtop)
      | Some _ | None -> Vtop)
  | Ir.ALen _ -> Vint None
  | Ir.Cast (_, v) -> eval_value vars v
  | Ir.Invoke i -> eval_invoke t ~depth plan href vars sid i

and eval_invoke t ~depth plan href vars (sid : Ir.stmt_id) (i : Ir.invoke) :
    Absval.t =
  let base = Option.map (fun b -> eval_value vars (Ir.Local b)) i.Ir.ibase in
  let args = List.map (eval_value vars) i.Ir.iargs in
  (* AsyncTask chaining: execute(args) → doInBackground(args) →
     onPostExecute(result), in the callback table's order. *)
  let call = call_at plan sid.Ir.sid_idx i in
  let model = call.c_model in
  if model = Some Libmodel.Async_execute then begin
    match base with
    | Some (Vobj o) ->
        let run prev name =
          let args = if Callbacks.previous name = None then args else [ prev ] in
          let cb = { Ir.id_cls = o.o_cls; id_name = name } in
          run_app_method t ~depth ~href ~sid cb ~this:base ~args
        in
        ignore (List.fold_left run Vtop (Callbacks.callbacks Libmodel.Async_execute));
        Vnull
    | Some _ | None -> Vnull
  end
  else begin
    match (callees_at t call sid, model) with
    | [], Some m -> (
        match Api_sem.call (api_ctx t ~depth ~href ~sid) ~sid m i ~base ~args with
        | Some v ->
            (* Evidence chain: a semantic model matched this library call. *)
            if Provenance.is_enabled Provenance.default then
              Provenance.record_rule Provenance.default ~stmt:sid
                (i.Ir.iref.Ir.mcls ^ "." ^ i.Ir.iref.Ir.mname);
            v
        | None -> Vtop)
    | [], None -> Vtop
    | callees, _ ->
        let results =
          List.map
            (fun c -> run_app_method t ~depth ~href ~sid c ~this:base ~args)
            callees
        in
        (match results with
        | [] -> Vtop
        | r :: rest ->
            let mval, final = state_merger ~combine_sig:alt_sig !href !href in
            let merged = List.fold_left mval r rest in
            href := final ();
            merged)
  end

and run_app_method t ~depth ~href ~sid mid ~this ~args : Absval.t =
  let skip =
    match t.relevant with
    | Some rel ->
        (* Constructors always run: they establish the object context
           (listener → activity links) that slices alone may not cover. *)
        mid.Ir.id_name <> "<init>" && not (Ir.Method_set.mem mid rel)
    | None -> false
  in
  if skip then Vtop
  else begin
    t.callstack <- sid :: t.callstack;
    let r, heap' = exec_method t ~depth:(depth + 1) ~heap:!href mid ~this ~args in
    t.callstack <- List.tl t.callstack;
    href := heap';
    r
  end

and api_ctx t ~depth ~href ~sid : Api_sem.ctx =
  {
    Api_sem.cx_prog = t.prog;
    cx_heap = href;
    cx_sid = sid;
    cx_resources = (fun id -> Apk.resource_string t.apk id);
    cx_new_tx = (fun ~dp -> new_tx t ~dp);
    cx_tx = (fun id -> Hashtbl.find_opt t.txs id);
    cx_db = t.db;
    cx_run_callback =
      (fun cb this args ->
        if Prog.find_method t.prog cb <> None then begin
          let r, heap' =
            exec_method t ~depth:(depth + 1) ~heap:!href cb ~this ~args
          in
          href := heap';
          r
        end
        else Vtop);
    cx_register =
      (fun event listener ->
        match listener with
        | Vobj o ->
            let cb = { Ir.id_cls = o.o_cls; id_name = Callbacks.callback event } in
            if
              Prog.find_method t.prog cb <> None
              && (not
                    (List.exists
                       (fun p -> Ir.Method_id.equal p.pe_meth cb)
                       t.pending))
              && not (List.exists (fun (m, _) -> Ir.Method_id.equal m cb) t.fired)
            then
              t.pending <-
                t.pending @ [ { pe_meth = cb; pe_this = Vobj o; pe_event = event } ]
        | Vtop | Vnull | Vbool _ | Vint _ | Vstr _ | Vlist _ | Vpair _ | Vcursor _
          ->
            ());
    cx_intents = t.opts.io_intents;
  }

(* ------------------------------------------------------------------ *)
(* Driving from origins                                               *)
(* ------------------------------------------------------------------ *)

(* A push payload is an opaque server-controlled string. *)
let framework_args (href : heap ref) (p : pending) : Absval.t list =
  Callbacks.event_args p.pe_event
    ~fresh:(fun cls -> Vobj (halloc href cls))
    ~payload:str_unknown

(** Run the whole app: lifecycle entry points first, then registered
    callbacks (with or without persistent heap state per options). *)
let run t : Txn.t list =
  let entries = Apk.entry_points t.apk in
  (* Activities share one instance across their lifecycle methods so state
     set in onCreate is visible in onResume. *)
  let singletons : (string, obj * heap) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (r : Ir.method_ref) ->
      let mid = Ir.method_id_of_ref r in
      match Prog.find_method t.prog mid with
      | None -> ()
      | Some m ->
          t.origin <- mid;
          t.callstack <- [];
          let heap0, this =
            if m.Ir.m_static then (empty_heap, None)
            else begin
              match Hashtbl.find_opt singletons mid.Ir.id_cls with
              | Some (o, h) -> (h, Some (Vobj o))
              | None ->
                  let href = ref empty_heap in
                  let o = halloc href mid.Ir.id_cls in
                  (!href, Some (Vobj o))
            end
          in
          let _, heap' = exec_method t ~depth:0 ~heap:heap0 mid ~this ~args:[] in
          match this with
          | Some (Vobj o) -> Hashtbl.replace singletons mid.Ir.id_cls (o, heap')
          | Some _ | None -> ())
    entries;
  (* Fire registered callbacks on a cumulative event heap: each callback
     sees the state left behind by earlier events, which is how implicit
     data flows across asynchronous events become visible (§3.4).  A
     second sweep re-fires every callback on the settled heap so
     registration order does not hide dependencies (e.g. a save/vote click
     registered before the login that produces its token). *)
  let event_heap =
    ref
      (Hashtbl.fold
         (fun _ (_, h) acc ->
           let _, final = state_merger ~combine_sig:alt_sig acc h in
           final ())
         singletons empty_heap)
  in
  let callback_relevant p =
    (* Events whose handlers touch no slice are skipped, like any other
       non-slice method (the efficiency argument of §3.1). *)
    match t.relevant with
    | Some rel -> Ir.Method_set.mem p.pe_meth rel
    | None -> true
  in
  let fire_callback p =
    Metrics.incr m_callbacks;
    t.origin <- p.pe_meth;
    t.callstack <- [];
    let heap0, this =
      if t.opts.io_event_heap then (!event_heap, p.pe_this)
      else begin
        let href = ref empty_heap in
        let o = halloc href p.pe_meth.Ir.id_cls in
        (!href, Vobj o)
      end
    in
    let href = ref heap0 in
    let args = framework_args href p in
    let _, heap' =
      exec_method t ~depth:0 ~heap:!href p.pe_meth ~this:(Some this) ~args
    in
    if t.opts.io_event_heap then event_heap := heap'
  in
  let all_fired = ref [] in
  let rounds = ref 0 in
  while t.pending <> [] && !rounds < 8 do
    incr rounds;
    let batch = t.pending in
    t.pending <- [];
    List.iter
      (fun p ->
        let key = (p.pe_meth, p.pe_event) in
        if not (List.mem key t.fired) then begin
          t.fired <- key :: t.fired;
          if callback_relevant p then begin
            all_fired := !all_fired @ [ p ];
            fire_callback p
          end
        end)
      batch
  done;
  (* Second sweep over the settled heap. *)
  if t.opts.io_event_heap then List.iter fire_callback !all_fired;
  (* If the budget tripped at any point, whole blocks were skipped: every
     signature built in this run may be missing fragments.  Mark the
     transactions and record the degradation rather than presenting
     fragmentary signatures as complete. *)
  (match Resilience.Budget.exhaustion t.budget with
  | Some _ ->
      Hashtbl.iter (fun _ tx -> tx.Txn.tx_degraded <- true) t.txs;
      Resilience.Degrade.record_exhaustion ~phase:"interpretation"
        ~work_left:(List.length t.pending) t.budget
        "abstract interpretation skipped basic blocks after the budget \
         tripped; transaction signatures may be fragmentary"
  | None -> ());
  Profile.close t.prof;
  Metrics.incr m_stmts ~by:t.steps;
  Metrics.incr m_txs ~by:t.tx_count;
  Log.info (fun m ->
      m "interpretation: %d raw transactions (%d statements interpreted)"
        t.tx_count t.steps);
  Hashtbl.fold (fun _ tx acc -> tx :: acc) t.txs []
  |> List.sort (fun a b -> compare a.Txn.tx_id b.Txn.tx_id)
