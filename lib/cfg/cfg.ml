(* Intra-procedural control-flow graphs over Limple method bodies: basic
   blocks, successor/predecessor edges, dominators, natural loops and a
   loop-aware topological order.  The signature builder (§3.2) processes
   basic blocks in topological order and needs to know which confluence
   points are loop headers or latches. *)

module Ir = Extr_ir.Types

type block = {
  b_id : int;
  b_first : int;  (** index of the first statement *)
  b_last : int;  (** index of the last statement (inclusive) *)
}

type t = {
  meth : Ir.meth;
  blocks : block array;
  succs : int list array;
  preds : int list array;
  block_of_stmt : int array;  (** statement index → block id *)
}

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let label_table (body : Ir.stmt array) =
  let tbl = Hashtbl.create 8 in
  Array.iteri
    (fun i s -> match s with Ir.Lab l -> Hashtbl.replace tbl l i | _ -> ())
    body;
  tbl

(** Statement-level successors.  A branch whose label does not exist
    (truncated or corrupt bytecode) is treated as a jump out of the
    method: no successor, like a return — the graph stays well-formed
    instead of the build raising. *)
let stmt_succs body labels i =
  let n = Array.length body in
  let fallthrough = if i + 1 < n then [ i + 1 ] else [] in
  match body.(i) with
  | Ir.Goto l -> (
      match Hashtbl.find_opt labels l with Some j -> [ j ] | None -> [])
  | Ir.If (_, l) -> (
      match Hashtbl.find_opt labels l with
      | Some j -> j :: fallthrough
      | None -> fallthrough)
  | Ir.Return _ -> []
  | Ir.Assign _ | Ir.InvokeStmt _ | Ir.Lab _ | Ir.Nop -> fallthrough

let build (meth : Ir.meth) : t =
  let body = meth.Ir.m_body in
  let n = Array.length body in
  if n = 0 then
    {
      meth;
      blocks = [| { b_id = 0; b_first = 0; b_last = -1 } |];
      succs = [| [] |];
      preds = [| [] |];
      block_of_stmt = [||];
    }
  else begin
    let labels = label_table body in
    (* Leaders: first statement, branch targets, statements following a
       branch or return. *)
    let leader = Array.make n false in
    leader.(0) <- true;
    Array.iteri
      (fun i s ->
        match s with
        | Ir.Goto l | Ir.If (_, l) ->
            (match Hashtbl.find_opt labels l with
            | Some j -> leader.(j) <- true
            | None -> () (* dangling label: edge dropped in stmt_succs *));
            if i + 1 < n then leader.(i + 1) <- true
        | Ir.Return _ -> if i + 1 < n then leader.(i + 1) <- true
        | Ir.Assign _ | Ir.InvokeStmt _ | Ir.Lab _ | Ir.Nop -> ())
      body;
    let block_of_stmt = Array.make n (-1) in
    let blocks = ref [] in
    let current_first = ref 0 in
    let n_blocks = ref 0 in
    for i = 0 to n - 1 do
      if i > 0 && leader.(i) then begin
        blocks := { b_id = !n_blocks; b_first = !current_first; b_last = i - 1 } :: !blocks;
        incr n_blocks;
        current_first := i
      end;
      block_of_stmt.(i) <- !n_blocks
    done;
    blocks := { b_id = !n_blocks; b_first = !current_first; b_last = n - 1 } :: !blocks;
    let blocks = Array.of_list (List.rev !blocks) in
    let nb = Array.length blocks in
    let succs = Array.make nb [] and preds = Array.make nb [] in
    Array.iter
      (fun blk ->
        let targets = stmt_succs body labels blk.b_last in
        List.iter
          (fun t ->
            let tb = block_of_stmt.(t) in
            if not (List.mem tb succs.(blk.b_id)) then begin
              succs.(blk.b_id) <- tb :: succs.(blk.b_id);
              preds.(tb) <- blk.b_id :: preds.(tb)
            end)
          targets)
      blocks;
    { meth; blocks; succs; preds; block_of_stmt }
  end

let n_blocks t = Array.length t.blocks

(* ------------------------------------------------------------------ *)
(* Reachability and dominators                                        *)
(* ------------------------------------------------------------------ *)

let reachable t =
  let seen = Array.make (n_blocks t) false in
  let rec visit b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter visit t.succs.(b)
    end
  in
  visit 0;
  seen

(** Dominator sets by iterative data-flow (small methods; simplicity wins
    over Lengauer-Tarjan). [doms.(b)] is the set of blocks dominating b. *)
let dominators t =
  let nb = n_blocks t in
  let reach = reachable t in
  let full = List.init nb Fun.id in
  let doms = Array.make nb full in
  doms.(0) <- [ 0 ];
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 1 to nb - 1 do
      if reach.(b) then begin
        let pred_doms =
          List.filter_map
            (fun p -> if reach.(p) then Some doms.(p) else None)
            t.preds.(b)
        in
        let inter =
          match pred_doms with
          | [] -> [ b ]
          | first :: rest ->
              List.fold_left
                (fun acc s -> List.filter (fun x -> List.mem x s) acc)
                first rest
        in
        let new_doms = List.sort_uniq compare (b :: inter) in
        if new_doms <> doms.(b) then begin
          doms.(b) <- new_doms;
          changed := true
        end
      end
    done
  done;
  doms

(* ------------------------------------------------------------------ *)
(* Loops                                                              *)
(* ------------------------------------------------------------------ *)

type loop_info = {
  headers : int list;  (** loop header blocks *)
  latches : int list;  (** blocks with a back edge to a header *)
  back_edges : (int * int) list;  (** (latch, header) *)
}

(** Natural-loop detection: a back edge is an edge u→v where v dominates
    u.  §3.2 needs to know whether a confluence point is a loop header or
    latch (rep vs ∨ when merging signatures). *)
let loops t =
  let doms = dominators t in
  let reach = reachable t in
  let back_edges = ref [] in
  Array.iteri
    (fun u succs ->
      if reach.(u) then
        List.iter (fun v -> if List.mem v doms.(u) then back_edges := (u, v) :: !back_edges) succs)
    t.succs;
  let back_edges = !back_edges in
  {
    headers = List.sort_uniq compare (List.map snd back_edges);
    latches = List.sort_uniq compare (List.map fst back_edges);
    back_edges;
  }

(* ------------------------------------------------------------------ *)
(* Topological order                                                  *)
(* ------------------------------------------------------------------ *)

(** Topological order of reachable blocks ignoring the back edges of
    [loops t] (the order in which the signature builder visits blocks). *)
let topological_order t { back_edges; _ } =
  let is_back u v = List.mem (u, v) back_edges in
  let nb = n_blocks t in
  let reach = reachable t in
  let temp = Array.make nb false and perm = Array.make nb false in
  let order = ref [] in
  let rec visit b =
    if perm.(b) then ()
    else if temp.(b) then () (* residual cycle: irreducible graph; cut it *)
    else begin
      temp.(b) <- true;
      List.iter (fun s -> if not (is_back b s) then visit s) t.succs.(b);
      perm.(b) <- true;
      order := b :: !order
    end
  in
  for b = 0 to nb - 1 do
    if reach.(b) && not perm.(b) then visit b
  done;
  List.filter (fun b -> reach.(b)) !order

(* ------------------------------------------------------------------ *)
(* Statement-level flow (used by the taint engines)                    *)
(* ------------------------------------------------------------------ *)

(** Successor statement indices for every statement of a method. *)
let stmt_successors (meth : Ir.meth) : int list array =
  let body = meth.Ir.m_body in
  let labels = label_table body in
  Array.init (Array.length body) (fun i -> stmt_succs body labels i)

(** Predecessor statement indices for every statement of a method. *)
let stmt_predecessors (meth : Ir.meth) : int list array =
  let succs = stmt_successors meth in
  let preds = Array.make (Array.length meth.Ir.m_body) [] in
  Array.iteri (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss) succs;
  preds

(** Indices of all return statements of a method. *)
let return_indices (meth : Ir.meth) =
  let acc = ref [] in
  Array.iteri
    (fun i s -> match s with Ir.Return _ -> acc := i :: !acc | _ -> ())
    meth.Ir.m_body;
  List.rev !acc
