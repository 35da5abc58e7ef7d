(* Control-flow tests: basic blocks, edges, dominators, natural loops,
   topological order, statement-level flow, and call-graph construction
   including implicit callback edges. *)

module Ir = Extr_ir.Types
module B = Extr_ir.Builder
module Prog = Extr_ir.Prog
module Cfg = Extr_cfg.Cfg
module Callgraph = Extr_cfg.Callgraph
module Api = Extr_semantics.Api
module Callbacks = Extr_semantics.Callbacks

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

let straight_line () =
  B.mk_meth ~cls:"C" ~name:"s" ~params:[] ~ret:Ir.Void (fun b ->
      let x = B.define b Ir.Int (Ir.Val (B.vint 1)) in
      let y = B.define b Ir.Int (Ir.Binop (Ir.Add, B.vl x, B.vint 2)) in
      ignore y)

let diamond () =
  B.mk_meth ~cls:"C" ~name:"d" ~params:[ B.local "c" Ir.Bool ] ~ret:Ir.Int
    (fun b ->
      let r = B.define b Ir.Int (Ir.Val (B.vint 0)) in
      B.ite b
        (B.vl (B.local "c" Ir.Bool))
        (fun b -> B.assign b r (Ir.Val (B.vint 1)))
        (fun b -> B.assign b r (Ir.Val (B.vint 2)));
      B.return_value b (B.vl r))

let looped () =
  B.mk_meth ~cls:"C" ~name:"l" ~params:[] ~ret:Ir.Int (fun b ->
      let i = B.define b Ir.Int (Ir.Val (B.vint 0)) in
      B.while_ b
        (fun b -> B.vl (B.define b Ir.Bool (Ir.Binop (Ir.Lt, B.vl i, B.vint 10))))
        (fun b -> B.assign b i (Ir.Binop (Ir.Add, B.vl i, B.vint 1)));
      B.return_value b (B.vl i))

(* ------------------------------------------------------------------ *)
(* Blocks and edges                                                   *)
(* ------------------------------------------------------------------ *)

let test_straight_line_single_block () =
  let cfg = Cfg.build (straight_line ()) in
  check Alcotest.int "one block" 1 (Cfg.n_blocks cfg)

let test_diamond_shape () =
  let cfg = Cfg.build (diamond ()) in
  (* entry, then, else, join — at least 4 blocks and a confluence with two
     forward predecessors. *)
  check Alcotest.bool ">= 4 blocks" true (Cfg.n_blocks cfg >= 4);
  let { Cfg.back_edges; _ } = Cfg.loops cfg in
  let forward_preds b =
    List.filter (fun p -> not (List.mem (p, b) back_edges)) cfg.Cfg.preds.(b)
  in
  let has_join =
    List.exists
      (fun b -> List.length (forward_preds b) = 2)
      (List.init (Cfg.n_blocks cfg) Fun.id)
  in
  check Alcotest.bool "join point exists" true has_join

let test_block_stmt_partition () =
  let m = diamond () in
  let cfg = Cfg.build m in
  let all =
    List.concat_map
      (fun (blk : Cfg.block) ->
        List.init (blk.Cfg.b_last - blk.Cfg.b_first + 1) (fun k ->
            blk.Cfg.b_first + k))
      (Array.to_list cfg.Cfg.blocks)
  in
  check Alcotest.int "every statement in exactly one block"
    (Array.length m.Ir.m_body) (List.length all);
  check Alcotest.(list int) "statements in order" (List.init (Array.length m.Ir.m_body) Fun.id)
    (List.sort compare all)

(* ------------------------------------------------------------------ *)
(* Dominators, loops, topological order                                *)
(* ------------------------------------------------------------------ *)

let test_dominators_entry () =
  let cfg = Cfg.build (diamond ()) in
  let doms = Cfg.dominators cfg in
  Array.iteri
    (fun b dset ->
      if List.mem b (List.init (Cfg.n_blocks cfg) Fun.id) && dset <> [] then
        check Alcotest.bool "entry dominates all" true (List.mem 0 dset || b = 0))
    doms

let test_no_loops_in_diamond () =
  let cfg = Cfg.build (diamond ()) in
  let { Cfg.headers; latches; _ } = Cfg.loops cfg in
  check Alcotest.(list int) "no headers" [] headers;
  check Alcotest.(list int) "no latches" [] latches

let test_loop_detection () =
  let cfg = Cfg.build (looped ()) in
  let { Cfg.headers; latches; back_edges } = Cfg.loops cfg in
  check Alcotest.bool "header found" true (headers <> []);
  check Alcotest.bool "latch found" true (latches <> []);
  check Alcotest.bool "back edge found" true (back_edges <> [])

let test_topological_order () =
  let cfg = Cfg.build (diamond ()) in
  let loops = Cfg.loops cfg in
  let order = Cfg.topological_order cfg loops in
  check Alcotest.int "covers reachable blocks" (Cfg.n_blocks cfg) (List.length order);
  (* Every forward edge respects the order. *)
  let position = Hashtbl.create 8 in
  List.iteri (fun i b -> Hashtbl.replace position b i) order;
  let ok = ref true in
  List.iteri
    (fun b succs ->
      ignore b;
      ignore succs)
    [];
  Array.iteri
    (fun b succs ->
      List.iter
        (fun s ->
          if
            Hashtbl.mem position b && Hashtbl.mem position s
            && not (List.mem (b, s) loops.Cfg.back_edges)
          then if Hashtbl.find position b >= Hashtbl.find position s then ok := false)
        succs)
    cfg.Cfg.succs;
  check Alcotest.bool "forward edges respect order" true !ok

let test_topo_order_with_loop () =
  let cfg = Cfg.build (looped ()) in
  let order = Cfg.topological_order cfg (Cfg.loops cfg) in
  check Alcotest.int "all blocks ordered" (Cfg.n_blocks cfg) (List.length order)

(* ------------------------------------------------------------------ *)
(* Statement-level flow                                               *)
(* ------------------------------------------------------------------ *)

let test_stmt_successors () =
  let m = diamond () in
  let succs = Cfg.stmt_successors m in
  (* Return statements have no successors. *)
  Array.iteri
    (fun i s ->
      match s with
      | Ir.Return _ -> check Alcotest.(list int) "return has no succ" [] succs.(i)
      | _ -> ())
    m.Ir.m_body

let test_stmt_predecessors_inverse () =
  let m = looped () in
  let succs = Cfg.stmt_successors m in
  let preds = Cfg.stmt_predecessors m in
  Array.iteri
    (fun i ss ->
      List.iter
        (fun s -> check Alcotest.bool "pred inverse" true (List.mem i preds.(s)))
        ss)
    succs

let test_return_indices () =
  let m = diamond () in
  check Alcotest.int "one return" 1 (List.length (Cfg.return_indices m))

(* ------------------------------------------------------------------ *)
(* Call graph                                                         *)
(* ------------------------------------------------------------------ *)

let callgraph_program () =
  let callee =
    B.mk_meth ~cls:"C" ~name:"callee" ~params:[] ~ret:Ir.Int (fun b ->
        B.return_value b (B.vint 1))
  in
  let caller =
    B.mk_meth ~cls:"C" ~name:"caller" ~params:[] ~ret:Ir.Void (fun b ->
        let r =
          B.call_ret b Ir.Int
            (B.virtual_call ~ret:Ir.Int (Ir.this_var "C") "C" "callee" [])
        in
        ignore r)
  in
  { Ir.p_classes = [ B.mk_cls ~super:Api.java_object "C" [ callee; caller ] ]; p_entries = [] }

let test_direct_edge () =
  let prog = Prog.of_program (callgraph_program ()) in
  let cg = Callgraph.lazy_build prog in
  let sites = Callgraph.callsites cg { Ir.id_cls = "C"; id_name = "caller" } in
  check Alcotest.int "one call site" 1 (List.length sites);
  check Alcotest.bool "edge to callee" true
    (List.exists
       (fun cs ->
         List.mem { Ir.id_cls = "C"; id_name = "callee" } cs.Callgraph.cs_callees)
       sites);
  check Alcotest.int "callers of callee" 1
    (List.length (Callgraph.callers cg { Ir.id_cls = "C"; id_name = "callee" }))

let test_virtual_dispatch_multiple_targets () =
  let mk_cls name =
    B.mk_cls ~super:"Base" name
      [ B.mk_meth ~cls:name ~name:"go" ~params:[] ~ret:Ir.Void (fun _ -> ()) ]
  in
  let base = B.mk_cls "Base" [] in
  let caller =
    B.mk_meth ~cls:"M" ~name:"run" ~params:[ B.local "b" (Ir.Obj "Base") ]
      ~ret:Ir.Void
      (fun b ->
        B.call b (B.virtual_call (B.local "b" (Ir.Obj "Base")) "Base" "go" []))
  in
  let prog =
    Prog.of_program
      {
        Ir.p_classes = [ base; mk_cls "D1"; mk_cls "D2"; B.mk_cls "M" [ caller ] ];
        p_entries = [];
      }
  in
  let cg = Callgraph.lazy_build prog in
  let sites = Callgraph.callsites cg { Ir.id_cls = "M"; id_name = "run" } in
  let targets = List.concat_map (fun cs -> cs.Callgraph.cs_callees) sites in
  check Alcotest.int "CHA finds both overrides" 2 (List.length targets)

let test_implicit_callback_edge () =
  let task_cls = "T" in
  let dib =
    B.mk_meth ~cls:task_cls ~name:"doInBackground"
      ~params:[ B.local "u" Ir.Str ]
      ~ret:Ir.Str
      (fun b -> B.return_value b (B.vstr ""))
  in
  let caller =
    B.mk_meth ~cls:"M" ~name:"go" ~params:[] ~ret:Ir.Void (fun b ->
        let t = B.new_obj b task_cls [] in
        B.call b (B.virtual_call t Api.async_task "execute" [ B.vstr "u" ]))
  in
  let prog =
    Prog.of_program
      {
        Ir.p_classes =
          [
            B.mk_cls ~super:Api.async_task task_cls [ dib ];
            B.mk_cls "M" [ caller ];
          ]
          @ Api.library_classes;
        p_entries = [];
      }
  in
  let cg =
    Callgraph.lazy_build ~callback_resolver:Callbacks.resolve
      ~callback_triggers:Callbacks.trigger_names prog
  in
  let sites = Callgraph.callsites cg { Ir.id_cls = "M"; id_name = "go" } in
  let implicit =
    List.exists
      (fun cs ->
        cs.Callgraph.cs_implicit
        && List.mem { Ir.id_cls = task_cls; id_name = "doInBackground" }
             cs.Callgraph.cs_callees)
      sites
  in
  check Alcotest.bool "implicit AsyncTask edge" true implicit

let test_reachability () =
  let prog = Prog.of_program (callgraph_program ()) in
  let cg = Callgraph.lazy_build prog in
  let reach = Callgraph.reachable_from cg [ { Ir.id_cls = "C"; id_name = "caller" } ] in
  check Alcotest.bool "callee reachable" true
    (Ir.Method_set.mem { Ir.id_cls = "C"; id_name = "callee" } reach)

let () =
  Alcotest.run "cfg"
    [
      ( "blocks",
        [
          tc "straight line" test_straight_line_single_block;
          tc "diamond shape" test_diamond_shape;
          tc "statement partition" test_block_stmt_partition;
        ] );
      ( "analysis",
        [
          tc "dominators" test_dominators_entry;
          tc "diamond has no loops" test_no_loops_in_diamond;
          tc "loop detection" test_loop_detection;
          tc "topological order" test_topological_order;
          tc "topo order with loop" test_topo_order_with_loop;
        ] );
      ( "stmt-flow",
        [
          tc "successors" test_stmt_successors;
          tc "predecessors inverse" test_stmt_predecessors_inverse;
          tc "return indices" test_return_indices;
        ] );
      ( "callgraph",
        [
          tc "direct edge" test_direct_edge;
          tc "virtual dispatch" test_virtual_dispatch_multiple_targets;
          tc "implicit callback" test_implicit_callback_edge;
          tc "reachability" test_reachability;
        ] );
    ]
