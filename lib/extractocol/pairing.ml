(* Request-response pairing over slices (§3.3, Figure 5).  When multiple
   requests and responses share a common demarcation point through code
   reuse, standard information-flow analysis discovers paths from every
   request to every response.  Extractocol preprocesses the slices into
   disjoint sub-slices — statement segments reachable from exactly one
   divergence head — and pairs a request segment with the response segment
   reachable from the same head. *)

module Ir = Extr_ir.Types
module Prog = Extr_ir.Prog
module Callgraph = Extr_cfg.Callgraph
module Slicer = Extr_slicing.Slicer
module Metrics = Extr_telemetry.Metrics
module Provenance = Extr_provenance.Provenance

let src =
  Logs.Src.create "extractocol.pairing" ~doc:"Disjoint request/response pairing"

module Log = (val Logs.src_log src : Logs.LOG)

let m_pairs =
  Metrics.counter ~help:"disjoint request/response pairs" "pairing.pairs"

let m_contexts =
  Metrics.histogram ~help:"divergence heads (disjoint contexts) per DP"
    "pairing.contexts"

type pair = {
  pr_dp : Slicer.dp_site;
  pr_head : Ir.method_id;  (** the divergence head owning both segments *)
  pr_request_segment : Ir.Stmt_set.t;
  pr_response_segment : Ir.Stmt_set.t;
}

(** Methods transitively reachable from [root] through the call graph
    (inclusive).  Explicit work-stack like [Callgraph.reachable_from]:
    deep generated call chains must not blow the OCaml stack. *)
let reach_down cg root = Callgraph.reachable_from cg [ root ]

(** Divergence heads for a demarcation point: walk the caller chain upward
    from the DP's method while it is unique; when a method has several
    callers, each caller method is a head.  With a single path the DP's own
    method chain top is the only head. *)
let divergence_heads cg (dp : Slicer.dp_site) : Ir.method_id list =
  let rec walk mid visited =
    if List.mem mid visited then [ mid ]
    else
      match Callgraph.callers cg mid with
      | [] -> [ mid ]
      | [ single ] -> walk single.Ir.sid_meth (mid :: visited)
      | many ->
          List.sort_uniq Ir.Method_id.compare
            (List.map (fun s -> s.Ir.sid_meth) many)
  in
  walk dp.Slicer.dp_stmt.Ir.sid_meth []

let stmts_in_methods (stmts : Ir.Stmt_set.t) (methods : Ir.Method_set.t) =
  Ir.Stmt_set.filter (fun sid -> Ir.Method_set.mem sid.Ir.sid_meth methods) stmts

(** Disjoint-segment pairing: one pair per divergence head, containing only
    the statements exclusive to that head's reach.  Slices are looked up
    by DP statement, and each head's reach is computed once per app. *)
let pair_disjoint (prog : Prog.t) cg (slices : Slicer.result) : pair list =
  ignore prog;
  let by_dp (sls : Slicer.slice list) =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (sl : Slicer.slice) ->
        let dp = sl.Slicer.sl_dp.Slicer.dp_stmt in
        if not (Hashtbl.mem tbl dp) then Hashtbl.add tbl dp sl)
      sls;
    Hashtbl.find_opt tbl
  in
  let request = by_dp slices.Slicer.r_request in
  let response = by_dp slices.Slicer.r_response in
  let reach =
    let memo = Hashtbl.create 16 in
    fun h ->
      match Hashtbl.find_opt memo h with
      | Some r -> r
      | None ->
          let r = reach_down cg h in
          Hashtbl.add memo h r;
          r
  in
  let pairs =
    List.concat_map
      (fun (dp : Slicer.dp_site) ->
      match (request dp.Slicer.dp_stmt, response dp.Slicer.dp_stmt) with
      | Some req, Some resp ->
          let heads = divergence_heads cg dp in
          Metrics.observe m_contexts (float_of_int (List.length heads));
          let reaches = List.map (fun h -> (h, reach h)) heads in
          List.map
            (fun (h, own_reach) ->
              (* Statements in methods reachable from this head but not
                 from any other head: the disjoint segments. *)
              let others =
                List.fold_left
                  (fun acc (h', r) ->
                    if Ir.Method_id.equal h h' then acc else Ir.Method_set.union acc r)
                  Ir.Method_set.empty reaches
              in
              let exclusive = Ir.Method_set.diff own_reach others in
              (* Evidence chain: why this pair was drawn (Figure 5). *)
              if Provenance.is_enabled Provenance.default then
                Provenance.record_pair Provenance.default
                  ~dp:dp.Slicer.dp_stmt ~head:h
                  ~reason:
                    (if List.length heads = 1 then "sole-head"
                     else "disjoint-context");
              {
                pr_dp = dp;
                pr_head = h;
                pr_request_segment = stmts_in_methods req.Slicer.sl_stmts exclusive;
                pr_response_segment = stmts_in_methods resp.Slicer.sl_stmts exclusive;
              })
            reaches
      | _, _ -> [])
      slices.Slicer.r_dps
  in
  Metrics.incr m_pairs ~by:(List.length pairs);
  Log.info (fun m ->
      m "pairing: %d disjoint pairs across %d demarcation points"
        (List.length pairs)
        (List.length slices.Slicer.r_dps));
  pairs

(** Naive pairing (the Figure-5 failure mode): pair every request slice
    with every response slice that shares a demarcation-point method —
    information-flow analysis would discover a path between all of them.
    Returns (request dp, response dp) candidate pairs. *)
let pair_naive (slices : Slicer.result) : (Slicer.dp_site * Slicer.dp_site) list =
  List.concat_map
    (fun (req : Slicer.slice) ->
      List.filter_map
        (fun (resp : Slicer.slice) ->
          let rd = req.Slicer.sl_dp and pd = resp.Slicer.sl_dp in
          if
            rd.Slicer.dp_stmt.Ir.sid_meth = pd.Slicer.dp_stmt.Ir.sid_meth
            && rd.Slicer.dp_info.Extr_semantics.Demarcation.dp_meth
               = pd.Slicer.dp_info.Extr_semantics.Demarcation.dp_meth
          then Some (rd, pd)
          else None)
        slices.Slicer.r_response)
    slices.Slicer.r_request
