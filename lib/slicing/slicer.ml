(* Network-aware program slicing (§3.1).  For every demarcation point in
   the application, compute:
     - the request slice: backward taint propagation from the request
       object (URI construction, body construction, headers);
     - the response slice: forward taint propagation from the response
       object (parsing, consumption);
     - object-aware augmentation: initialization context of objects used in
       forward slices;
     - the asynchronous-event heuristic (§3.4): backward propagation from
       setter statements of heap objects that carry request parts.
   The request slices of all demarcation points come from one backward
   engine whose facts carry the points they serve. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Index = Extr_ir.Index
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Demarcation = Extr_semantics.Demarcation
module Callbacks = Extr_semantics.Callbacks
module Fact = Extr_taint.Fact
module Forward = Extr_taint.Forward
module Backward = Extr_taint.Backward
module Metrics = Extr_telemetry.Metrics
module Profile = Extr_telemetry.Profile
module Provenance = Extr_provenance.Provenance
module Resilience = Extr_resilience.Resilience

let src = Logs.Src.create "extractocol.slicer" ~doc:"Network-aware program slicing"

module Log = (val Logs.src_log src : Logs.LOG)

let m_dps =
  Metrics.counter ~help:"demarcation points discovered"
    "slicer.demarcation_points"

let m_slice_stmts =
  Metrics.histogram ~help:"per-DP slice sizes in statements (kind=request|response)"
    "slicer.slice_stmts"

let m_augmented =
  Metrics.counter ~help:"statements added by object-aware augmentation"
    "slicer.augmented_stmts"

type dp_site = {
  dp_stmt : Ir.stmt_id;
  dp_invoke : Ir.invoke;
  dp_info : Demarcation.t;
}

type slice = {
  sl_dp : dp_site;
  sl_stmts : Ir.Stmt_set.t;
}

type result = {
  r_dps : dp_site list;
  r_request : slice list;  (** one request slice per demarcation point *)
  r_response : slice list;  (** one response slice per demarcation point *)
  r_stats : stats;
}

and stats = {
  st_total_stmts : int;
  st_slice_stmts : int;  (** statements in the union of all slices *)
}

(* ------------------------------------------------------------------ *)
(* Demarcation point discovery                                        *)
(* ------------------------------------------------------------------ *)

(** Demarcation-point invokes among the indexed call sites whose invoked
    name matches a registry entry — BackDroid's bytecode-search step —
    in global scan order.  [scope] optionally restricts discovery to
    classes with the given prefix (the Kayak analysis scopes to com.kayak
    classes, §5.3). *)
let find_demarcation_points ?scope (ix : Index.t) : dp_site list =
  let in_scope_cls cls =
    match scope with
    | None -> true
    | Some prefix ->
        String.length cls >= String.length prefix
        && String.sub cls 0 (String.length prefix) = prefix
  in
  List.concat_map (Index.sites_invoking ix) Demarcation.method_names
  |> List.sort (fun (a : Index.site) b -> compare a.Index.st_ord b.Index.st_ord)
  |> List.filter_map (fun (s : Index.site) ->
         if not (in_scope_cls s.Index.st_stmt.Ir.sid_meth.Ir.id_cls) then None
         else
           match Demarcation.find s.Index.st_invoke with
           | Some info ->
               Some
                 {
                   dp_stmt = s.Index.st_stmt;
                   dp_invoke = s.Index.st_invoke;
                   dp_info = info;
                 }
           | None -> None)

(* ------------------------------------------------------------------ *)
(* Request (backward) slices                                          *)
(* ------------------------------------------------------------------ *)

let request_root (dp : dp_site) : Ir.var option =
  match dp.dp_info.Demarcation.dp_request with
  | Demarcation.Arg i -> (
      match List.nth_opt dp.dp_invoke.Ir.iargs i with
      | Some (Ir.Local v) -> Some v
      | Some (Ir.Const _) | None -> None)
  | Demarcation.Recv -> dp.dp_invoke.Ir.ibase

(** Statements storing to one of the given instance fields, anywhere in the
    program — the setter statements the async heuristic restarts from —
    from the index's per-field store lists, in global scan order. *)
let field_store_sites (ix : Index.t) (fields : (string * string) list) =
  List.concat_map (Index.field_stores ix) fields
  |> List.sort (fun (a : Index.store) b -> compare a.Index.fs_ord b.Index.fs_ord)
  |> List.map (fun (s : Index.store) ->
         let mid = s.Index.fs_stmt.Ir.sid_meth in
         (s.Index.fs_stmt, Fact.local_path mid s.Index.fs_var s.Index.fs_field.Ir.fname))

(** The request slices of all DPs from one backward engine, whose facts
    carry the DPs they serve (bit k: the k-th DP of [dps]). *)
let request_slices ?budget ~async_heuristic ~async_iterations prog cg
    (dps : dp_site array) : slice list =
  let n = Array.length dps in
  let engine = Backward.create ~dps:n prog cg in
  Array.iteri
    (fun k dp ->
      match request_root dp with
      | Some v ->
          Backward.inject_at ~dps:[ k ] engine dp.dp_stmt
            [ Fact.local dp.dp_stmt.Ir.sid_meth v ]
      | None -> ())
    dps;
  Backward.run ?budget engine;
  (* §3.4: for each heap object carrying request parts, restart backward
     propagation from its setter statements.  The default is one hop; the
     paper's multiple-iterations variant repeats until no new heap
     carriers appear (bounded by [async_iterations]).  Each DP iterates
     on its own: its carriers are the field facts that carry its bit, a
     setter of field f is injected for the DPs whose carriers include f,
     and a DP stops when its carriers stop changing or it runs out of
     hops.  The engine is resumed, not rebuilt: the fixpoint already
     reached is a sound intermediate point of the extended one
     (injections only grow), so resuming converges to the identical
     fixpoint.  A tripped budget ends the heuristic: the slices are
     already under-approximate, and the degradation is recorded once. *)
  let known = Array.make n [] in
  (if async_heuristic then
     let hops = Array.make n (max 1 async_iterations) in
     let rec round () =
       let carriers = Backward.field_carriers engine in
       let iterating = ref [] in
       let by_field = Hashtbl.create 16 in
       for k = n - 1 downto 0 do
         let fields = carriers.(k) in
         if hops.(k) > 0 && fields <> known.(k) then begin
           hops.(k) <- hops.(k) - 1;
           known.(k) <- fields;
           iterating := k :: !iterating;
           List.iter
             (fun f ->
               Hashtbl.replace by_field f
                 (k :: Option.value (Hashtbl.find_opt by_field f) ~default:[]))
             fields
         end
         else hops.(k) <- 0
       done;
       if !iterating <> [] then begin
         Hashtbl.iter
           (fun field dps ->
             List.iter
               (fun (sid, fact) -> Backward.inject_at ~dps engine sid [ fact ])
               (field_store_sites (Callgraph.index cg) [ field ]))
           by_field;
         Backward.run ?budget ~counted:!iterating engine;
         if Backward.pending engine = 0 then round ()
       end
     in
     if Backward.pending engine = 0 then round ());
  let touched = Backward.touched_by_dp engine in
  List.mapi
    (fun k dp ->
      let stmts = touched.(k) in
      if Provenance.is_enabled Provenance.default then begin
        let dp_sid = dp.dp_stmt in
        Provenance.record_slice_step Provenance.default ~dp:dp_sid ~stmt:dp_sid
          Provenance.Dp_discovered;
        let setter_sids =
          List.map fst (field_store_sites (Callgraph.index cg) known.(k))
        in
        List.iter
          (fun sid ->
            Provenance.record_slice_step Provenance.default ~dp:dp_sid ~stmt:sid
              Provenance.Async_setter)
          setter_sids;
        (* Set membership, not List.mem: the touched set times the setter
           list made this loop quadratic with --explain on. *)
        let setter_set = Ir.Stmt_set.of_list setter_sids in
        Ir.Stmt_set.iter
          (fun sid ->
            if
              (not (Ir.Stmt_id.equal sid dp_sid))
              && not (Ir.Stmt_set.mem sid setter_set)
            then
              Provenance.record_slice_step Provenance.default ~dp:dp_sid
                ~stmt:sid Provenance.Backward_taint)
          stmts
      end;
      { sl_dp = dp; sl_stmts = Ir.Stmt_set.add dp.dp_stmt stmts })
    (Array.to_list dps)

(* ------------------------------------------------------------------ *)
(* Response (forward) slices                                          *)
(* ------------------------------------------------------------------ *)

(** The variable receiving the response at the demarcation point (for
    [Ret]-style bindings): the definition of the assign statement. *)
let response_def prog (dp : dp_site) : Ir.var option =
  match Prog.stmt_at prog dp.dp_stmt with
  | Some (Ir.Assign (Ir.Lvar v, Ir.Invoke _)) -> Some v
  | Some _ | None -> None

(** Callback entry points receiving the response for listener-style DPs. *)
let response_callback_roots prog (dp : dp_site) : (Ir.method_id * Ir.var) list =
  match dp.dp_info.Demarcation.dp_response with
  | Demarcation.Listener_callback { arg_idx } -> (
      match List.nth_opt dp.dp_invoke.Ir.iargs arg_idx with
      | Some (Ir.Local req_var) -> (
          match Prog.find_method prog dp.dp_stmt.Ir.sid_meth with
          | Some meth ->
              Callbacks.listener_of_request prog meth req_var
              |> List.filter_map (fun cb_id ->
                     match Prog.find_method prog cb_id with
                     | Some cb -> (
                         match cb.Ir.m_params with
                         | p :: _ -> Some (cb_id, p)
                         | [] -> None)
                     | None -> None)
          | None -> [])
      | Some (Ir.Const _) | None -> [])
  | Demarcation.Ret | Demarcation.Base | Demarcation.Opaque_sink -> []

let response_slice ?budget prog cg (dp : dp_site) : slice =
  let engine = Forward.create prog cg in
  (match dp.dp_info.Demarcation.dp_response with
  | Demarcation.Ret | Demarcation.Base -> (
      match response_def prog dp with
      | Some v ->
          Forward.inject_after engine dp.dp_stmt
            [ Fact.local dp.dp_stmt.Ir.sid_meth v ]
      | None -> ())
  | Demarcation.Listener_callback _ ->
      List.iter
        (fun (cb_id, param) ->
          Forward.inject_at_entry engine cb_id [ Fact.local cb_id param ])
        (response_callback_roots prog dp)
  | Demarcation.Opaque_sink -> ());
  Forward.run ?budget engine;
  let stmts = Forward.tainted_stmts engine in
  if Provenance.is_enabled Provenance.default then
    Ir.Stmt_set.iter
      (fun sid ->
        Provenance.record_slice_step Provenance.default ~dp:dp.dp_stmt ~stmt:sid
          Provenance.Forward_taint)
      stmts;
  { sl_dp = dp; sl_stmts = stmts }

(* ------------------------------------------------------------------ *)
(* Object-aware slice augmentation (§3.1)                              *)
(* ------------------------------------------------------------------ *)

(* Def/use index of one method for augmentation: the statements that
   define each variable — or, defining nothing, call through it as the
   receiver (constructors, builder appends mutate the object) — and the
   statements that write each instance field. *)
type aug_index = {
  ax_body : Ir.stmt array;
  ax_defs : (string, int list) Hashtbl.t;
  ax_writers : (string * string, int list) Hashtbl.t;
}

let aug_index_of (m : Ir.meth) =
  let defs = Hashtbl.create 16 and writers = Hashtbl.create 8 in
  let push tbl k idx =
    Hashtbl.replace tbl k
      (idx :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
  in
  Array.iteri
    (fun idx stmt ->
      match (Ir.stmt_def stmt, stmt) with
      | Some v, _ -> push defs v.Ir.vname idx
      | None, Ir.Assign (Ir.Lfield (_, f), _) ->
          push writers (f.Ir.fcls, f.Ir.fname) idx
      | None, Ir.InvokeStmt { Ir.ibase = Some b; _ } -> push defs b.Ir.vname idx
      | None, _ -> ())
    m.Ir.m_body;
  { ax_body = m.Ir.m_body; ax_defs = defs; ax_writers = writers }

(** Augment a forward slice with the complete context of the objects it
    uses: add the statements (in the same methods) that define a variable
    or write a field that an included statement reads, closing the slice
    with a worklist.  [index] gives each method's def/use index, shared
    by every slice of the run. *)
let augment_response_slice index (sl : slice) : slice =
  let by_method = Hashtbl.create 16 in
  Ir.Stmt_set.iter
    (fun sid ->
      let mid = sid.Ir.sid_meth in
      Hashtbl.replace by_method mid
        (sid.Ir.sid_idx
        :: Option.value (Hashtbl.find_opt by_method mid) ~default:[]))
    sl.sl_stmts;
  let methods =
    Hashtbl.fold (fun mid _ acc -> Ir.Method_set.add mid acc) by_method
      Ir.Method_set.empty
  in
  let included = ref sl.sl_stmts in
  let prof =
    Profile.cursor ~phase:"slicing.augment" ~render:Ir.Method_id.to_string ()
  in
  (* Augmentation never crosses a method boundary (uses and the defining
     statements added for them live in the same body), so each method
     closes on its own. *)
  Ir.Method_set.iter
    (fun mid ->
      Profile.visit prof mid;
      match index mid with
      | None -> ()
      | Some ix ->
          let work = ref (Hashtbl.find by_method mid) in
          let add idx =
            let sid = { Ir.sid_meth = mid; sid_idx = idx } in
            if not (Ir.Stmt_set.mem sid !included) then begin
              included := Ir.Stmt_set.add sid !included;
              Profile.add_facts prof 1;
              work := idx :: !work
            end
          in
          (* A variable or field pulls in its defining statements the
             first time an included statement reads it; later readers
             find them included already. *)
          let used_vars = Hashtbl.create 16 and used_fields = Hashtbl.create 8 in
          let use tbl seen k =
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              Option.iter (List.iter add) (Hashtbl.find_opt tbl k)
            end
          in
          while !work <> [] do
            let idx = List.hd !work in
            work := List.tl !work;
            if idx < Array.length ix.ax_body then begin
              let stmt = ix.ax_body.(idx) in
              List.iter
                (fun (v : Ir.var) -> use ix.ax_defs used_vars v.Ir.vname)
                (Ir.stmt_uses stmt);
              match stmt with
              | Ir.Assign (_, Ir.IField (_, f)) ->
                  use ix.ax_writers used_fields (f.Ir.fcls, f.Ir.fname)
              | _ -> ()
            end
          done)
    methods;
  Profile.close prof;
  if Provenance.is_enabled Provenance.default then
    Ir.Stmt_set.iter
      (fun sid ->
        if not (Ir.Stmt_set.mem sid sl.sl_stmts) then
          Provenance.record_slice_step Provenance.default ~dp:sl.sl_dp.dp_stmt
            ~stmt:sid Provenance.Augmented)
      !included;
  { sl with sl_stmts = !included }

(* ------------------------------------------------------------------ *)
(* End-to-end slicing                                                 *)
(* ------------------------------------------------------------------ *)

type options = {
  opt_async_heuristic : bool;  (** §3.4 heuristic (on for closed-source) *)
  opt_async_iterations : int;
      (** heap-carrier hops to follow: 1 = the paper's implementation,
          higher values are its suggested multi-iteration extension *)
  opt_augmentation : bool;  (** object-aware augmentation *)
  opt_scope : string option;  (** class-prefix scope (§5.3) *)
  opt_budget : Resilience.Budget.t option;
      (** shared per-run budget the taint engines spend from; [None]
          gives each engine its own historical 2M-step bound — the one
          backward engine included *)
}

let default_options =
  {
    opt_async_heuristic = false;
    opt_async_iterations = 1;
    opt_augmentation = true;
    opt_scope = None;
    opt_budget = None;
  }

let run ?(options = default_options) (prog : Prog.t) (cg : Callgraph.t) : result =
  let telemetry = Metrics.is_enabled Metrics.default in
  let dps =
    find_demarcation_points ?scope:options.opt_scope (Callgraph.index cg)
  in
  Metrics.incr m_dps ~by:(List.length dps);
  let observe_size kind sl =
    if telemetry then
      Metrics.observe m_slice_stmts
        ~labels:[ ("kind", kind) ]
        (float_of_int (Ir.Stmt_set.cardinal sl.sl_stmts))
  in
  let request =
    if dps = [] then []
    else
      request_slices ?budget:options.opt_budget
        ~async_heuristic:options.opt_async_heuristic
        ~async_iterations:options.opt_async_iterations prog cg
        (Array.of_list dps)
  in
  List.iter (observe_size "request") request;
  let aug_index =
    let memo = Hashtbl.create 64 in
    fun mid ->
      match Hashtbl.find_opt memo mid with
      | Some ix -> ix
      | None ->
          let ix = Option.map aug_index_of (Prog.find_method prog mid) in
          Hashtbl.add memo mid ix;
          ix
  in
  let response =
    List.map
      (fun dp ->
        let sl = response_slice ?budget:options.opt_budget prog cg dp in
        let sl =
          if options.opt_augmentation then begin
            let augmented = augment_response_slice aug_index sl in
            if telemetry then
              Metrics.incr m_augmented
                ~by:
                  (Ir.Stmt_set.cardinal augmented.sl_stmts
                  - Ir.Stmt_set.cardinal sl.sl_stmts);
            augmented
          end
          else sl
        in
        observe_size "response" sl;
        sl)
      dps
  in
  let union =
    List.fold_left
      (fun acc sl -> Ir.Stmt_set.union acc sl.sl_stmts)
      Ir.Stmt_set.empty (request @ response)
  in
  let slice_stmts = Ir.Stmt_set.cardinal union in
  let total_stmts = Prog.app_stmt_count prog in
  Log.info (fun m ->
      m "slicing: %d demarcation points, %d/%d statements in slices"
        (List.length dps) slice_stmts total_stmts);
  {
    r_dps = dps;
    r_request = request;
    r_response = response;
    r_stats = { st_total_stmts = total_stmts; st_slice_stmts = slice_stmts };
  }

(** Fraction of application code covered by the slices (Figure 3 reports
    6.3 % for Diode). *)
let slice_fraction (r : result) =
  if r.r_stats.st_total_stmts = 0 then 0.0
  else float_of_int r.r_stats.st_slice_stmts /. float_of_int r.r_stats.st_total_stmts
