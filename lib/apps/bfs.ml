open Dex_core
module A = App_common

type params = {
  scale : int;
  edge_factor : int;
  ns_per_edge : float;
  max_iters : int;
  sample_pages : int;
}

let default_params =
  { scale = 18; edge_factor = 16; ns_per_edge = 12.0; max_iters = 64;
    sample_pages = 64 }

let conversion =
  {
    A.multithread = "Pthread";
    initial_added = 12;
    initial_removed = 8;
    optimized_added = 44;
    optimized_removed = 13;
  }

let graph_cache : (int * int * int, Workloads.graph) Hashtbl.t =
  Hashtbl.create 4

let host_graph p ~seed =
  let key = (seed, p.scale, p.edge_factor) in
  match Hashtbl.find_opt graph_cache key with
  | Some g -> g
  | None ->
      let vertices = 1 lsl p.scale in
      let g =
        Workloads.rmat ~seed ~vertices ~edges:(vertices * p.edge_factor)
      in
      Hashtbl.add graph_cache key g;
      g

(* Host level-synchronous BFS from vertex 0; returns levels and the
   per-level frontiers. *)
let host_bfs (g : Workloads.graph) max_iters =
  let levels = Array.make g.Workloads.vertices (-1) in
  levels.(0) <- 0;
  let rec expand frontier depth acc =
    if frontier = [] || depth >= max_iters then List.rev acc
    else begin
      let next = ref [] in
      List.iter
        (fun v ->
          for e = g.Workloads.offsets.(v) to g.Workloads.offsets.(v + 1) - 1 do
            let u = g.Workloads.targets.(e) in
            if levels.(u) < 0 then begin
              levels.(u) <- depth + 1;
              next := u :: !next
            end
          done)
        frontier;
      expand (List.rev !next) (depth + 1) (frontier :: acc)
    end
  in
  let frontiers = expand [ 0 ] 0 [] in
  (levels, frontiers)

let reference_level_sum p ~seed =
  let levels, _ = host_bfs (host_graph p ~seed) p.max_iters in
  Array.fold_left (fun acc l -> if l > 0 then acc + l else acc) 0 levels

let dedup_sorted l =
  match List.sort_uniq compare l with x -> x

let body p ctx main =
  let g = host_graph p ~seed:ctx.A.seed in
  let vertices = g.Workloads.vertices in
  let threads = ctx.A.threads in
  let proc = ctx.A.proc in
  let levels, frontiers = host_bfs g p.max_iters in
  (* Simulated layout: CSR arrays (read-mostly), the level array, the
     frontier counter, and per-node inboxes for the Optimized variant. *)
  let offsets_addr =
    Process.malloc main ~bytes:((vertices + 1) * 8) ~tag:"bfs.offsets"
  in
  let targets_addr =
    Process.malloc main
      ~bytes:(Array.length g.Workloads.targets * 8)
      ~tag:"bfs.targets"
  in
  let levels_addr, counter_addr =
    match ctx.A.variant with
    | A.Baseline | A.Initial ->
        ( Process.malloc main ~bytes:(vertices * 8) ~tag:"bfs.levels",
          Process.malloc main ~bytes:8 ~tag:"bfs.frontier_count" )
    | A.Optimized ->
        ( Process.memalign main ~align:4096 ~bytes:(vertices * 8)
            ~tag:"bfs.levels",
          Process.memalign main ~align:4096 ~bytes:8 ~tag:"bfs.frontier_count"
        )
  in
  let inbox_addr =
    (* One page-aligned inbox per node (Polymer's per-node structures). *)
    Process.memalign main ~align:4096 ~bytes:(ctx.A.nodes * 16 * 4096)
      ~tag:"bfs.inboxes"
  in
  let barrier = Sync.Barrier.create proc ~parties:threads () in
  let vert_part i = A.partition ~total:vertices ~parts:threads ~index:i in
  let owner_of v = A.node_of ctx (v * threads / vertices) in
  (* Per-level, per-thread work description, derived from the real BFS:
     which frontier vertices are mine, how many edges I scan, and which
     vertices I discover. *)
  let plan_for i =
    let first, count = vert_part i in
    List.map
      (fun frontier ->
        let mine = List.filter (fun v -> v >= first && v < first + count) frontier in
        let edges = ref 0 in
        let discovered = ref [] in
        List.iter
          (fun v ->
            for e = g.Workloads.offsets.(v) to g.Workloads.offsets.(v + 1) - 1
            do
              incr edges;
              let u = g.Workloads.targets.(e) in
              if levels.(u) = levels.(v) + 1 then discovered := u :: !discovered
            done)
          mine;
        (mine, !edges, dedup_sorted !discovered))
      frontiers
  in
  A.parallel_region ctx (fun i th ->
      let first, count = vert_part i in
      let plan = plan_for i in
      (* Fault in our share of the graph once. *)
      if count > 0 then begin
        Process.read_range th ~site:"bfs.offsets" (offsets_addr + (first * 8))
          ~len:((count + 1) * 8);
        let efirst = g.Workloads.offsets.(first) in
        let elast = g.Workloads.offsets.(first + count) in
        if elast > efirst then
          Process.read_range th ~site:"bfs.targets"
            (targets_addr + (efirst * 8))
            ~len:((elast - efirst) * 8)
      end;
      List.iter
        (fun (mine, edges, discovered) ->
          if mine <> [] then begin
            Process.compute th
              ~ns:(int_of_float (float_of_int edges *. p.ns_per_edge))
          end;
          (match ctx.A.variant with
          | A.Baseline | A.Initial ->
              (* Checking every neighbour's level means scattered reads
                 across the whole level array, then scattered writes for
                 the discoveries (both modelled by up to [sample_pages]
                 distinct pages), plus a global frontier counter update
                 per burst. *)
              let read_pages =
                dedup_sorted
                  (List.concat_map
                     (fun v ->
                       let acc = ref [] in
                       for e = g.Workloads.offsets.(v)
                           to g.Workloads.offsets.(v + 1) - 1 do
                         acc := (g.Workloads.targets.(e) / 512) :: !acc
                       done;
                       !acc)
                     mine)
              in
              List.iteri
                (fun k page ->
                  if k < p.sample_pages then
                    Process.read_range th ~site:"bfs.level_check"
                      (levels_addr + (page * 4096))
                      ~len:8)
                read_pages;
              let pages =
                dedup_sorted (List.map (fun u -> u / 512) discovered)
              in
              List.iteri
                (fun k page ->
                  if k < p.sample_pages then
                    Process.store th ~site:"bfs.level_write"
                      (levels_addr + (page * 4096))
                      (Int64.of_int k))
                pages;
              if discovered <> [] then
                ignore
                  (Process.fetch_add th ~site:"bfs.frontier_count" counter_addr
                     (Int64.of_int (List.length discovered)))
          | A.Optimized ->
              (* Polymer-style: stage remote discoveries into per-node
                 inboxes; update only our own partition's level pages. *)
              let by_node = Hashtbl.create 8 in
              List.iter
                (fun u ->
                  let o = owner_of u in
                  Hashtbl.replace by_node o
                    (1 + Option.value (Hashtbl.find_opt by_node o) ~default:0))
                discovered;
              Hashtbl.iter
                (fun o n ->
                  if o = A.node_of ctx i then begin
                    (* Our own vertices: write the level pages directly. *)
                    let own =
                      dedup_sorted
                        (List.filter_map
                           (fun u ->
                             if owner_of u = o then Some (u / 512) else None)
                           discovered)
                    in
                    List.iter
                      (fun page ->
                        Process.store th ~site:"bfs.level_write"
                          (levels_addr + (page * 4096))
                          1L)
                      own
                  end
                  else
                    Process.write_range th ~site:"bfs.inbox_write"
                      (inbox_addr + (o * 16 * 4096))
                      ~len:(max 8 (n * 8)))
                by_node;
              if discovered <> [] then
                ignore
                  (Process.fetch_add th ~site:"bfs.frontier_count" counter_addr
                     (Int64.of_int (List.length discovered))));
          Sync.Barrier.await th barrier;
          (match ctx.A.variant with
          | A.Optimized ->
              (* Drain our node's inbox (written by everyone last level). *)
              let me = A.node_of ctx i in
              Process.read_range th ~site:"bfs.inbox_drain"
                (inbox_addr + (me * 16 * 4096))
                ~len:(16 * 4096)
          | A.Baseline | A.Initial -> ());
          Sync.Barrier.await th barrier)
        plan);
  Int64.of_int (reference_level_sum p ~seed:ctx.A.seed)

let run ~nodes ~variant ?config ?proto ?(params = default_params) ?(seed = 31) () =
  A.run_app ~name:"BFS" ~nodes ~variant ?config ?proto ~seed (body params)
