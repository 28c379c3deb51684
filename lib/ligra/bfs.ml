type result = {
  rounds : int;
  visited : int;
  elapsed_cycles : int64;
  thread_ctxs : Sim.Engine.ctx list;
}

(* Charge helper: batch user compute and flush the mmio cost buffer when
   it grows, so millions of accesses stay cheap in events. *)
type charger = { buf : Sim.Costbuf.t; mutable compute : int64 }

let flush_charger ch =
  if Int64.compare ch.compute 0L > 0 then begin
    Sim.Engine.delay ~cat:Sim.Engine.User ~label:"ligra_compute" ch.compute;
    ch.compute <- 0L
  end;
  Sim.Costbuf.charge ch.buf

let maybe_flush ch =
  if
    Int64.compare (Int64.add ch.compute (Sim.Costbuf.total ch.buf)) 200_000L > 0
  then flush_charger ch

let run ~eng ~(graph : Graph.t) ~surface ~threads ~source ?(cycles_per_edge = 60L)
    ?(cycles_per_vertex = 120L) () =
  if source < 0 || source >= graph.Graph.n then invalid_arg "Bfs.run: source";
  if threads <= 0 then invalid_arg "Bfs.run: threads";
  let n = graph.Graph.n and m = graph.Graph.m in
  let start_time = Sim.Engine.now eng in
  let ctxs = ref [] in
  let rounds = ref 0 in
  let visited = ref 1 in
  let main_ctx =
    Sim.Engine.spawn eng ~name:"bfs-driver" ~core:0 (fun () ->
        let buf0 = Sim.Costbuf.create () in
        (* Surface-resident arrays: out CSR, in CSR, parents, dense bits.
           The CSR arrays are the graph's own, placed read-only. *)
        let place_edges a = Mem_surface.place surface (if m = 0 then [| 0 |] else a) in
        let offs = Mem_surface.place surface graph.Graph.offsets in
        let edgs = place_edges graph.Graph.edges in
        let in_offs = Mem_surface.place surface graph.Graph.in_offsets in
        let in_edgs = place_edges graph.Graph.in_edges in
        let parent = Mem_surface.alloc surface ~len:n ~init:(fun _ -> -1) in
        let cur_dense = Mem_surface.alloc surface ~len:n ~init:(fun _ -> false) in
        let next_dense = Mem_surface.alloc surface ~len:n ~init:(fun _ -> false) in
        Mem_surface.set parent ~buf:buf0 source source;
        Sim.Costbuf.charge buf0;
        let frontier = ref [| source |] in
        let frontier_is_dense = ref false in
        let continue_ = ref true in
        while !continue_ do
          incr rounds;
          (* decide direction: Ligra's |F| + outdeg(F) > m/20 heuristic *)
          let fsize, fdeg =
            if !frontier_is_dense then
              (* approximate via visited count *)
              (!visited, m / 10)
            else
              Array.fold_left
                (fun (c, d) u -> (c + 1, d + Graph.out_degree graph u))
                (0, 0) !frontier
          in
          let dense = fsize + fdeg > max 1 (m / 20) in
          let nworkers = threads in
          let results : int list array = Array.make nworkers [] in
          let dones = Array.init nworkers (fun _ -> Sim.Sync.Ivar.create ()) in
          let densify () =
            if not !frontier_is_dense then begin
              let b = Sim.Costbuf.create () in
              for v = 0 to n - 1 do
                if Mem_surface.get cur_dense ~buf:b v then
                  Mem_surface.set cur_dense ~buf:b v false
              done;
              Array.iter (fun u -> Mem_surface.set cur_dense ~buf:b u true) !frontier;
              Sim.Costbuf.charge b
            end
          in
          if dense then densify ();
          for w = 0 to nworkers - 1 do
            let wctx =
              Sim.Engine.spawn eng ~name:(Printf.sprintf "bfs-w%d" w) ~core:(w mod 32)
                 (fun () ->
                   let ch = { buf = Sim.Costbuf.create (); compute = 0L } in
                   let next = ref [] in
                   if dense then begin
                     (* bottom-up: each worker owns a vertex range *)
                     let lo = w * n / nworkers and hi = ((w + 1) * n / nworkers) - 1 in
                     for v = lo to hi do
                       ch.compute <- Int64.add ch.compute cycles_per_vertex;
                       if Mem_surface.get parent ~buf:ch.buf v = -1 then begin
                         let o0 = Mem_surface.get in_offs ~buf:ch.buf v in
                         let o1 = Mem_surface.get in_offs ~buf:ch.buf (v + 1) in
                         let found = ref false in
                         let e = ref o0 in
                         while (not !found) && !e < o1 do
                           ch.compute <- Int64.add ch.compute cycles_per_edge;
                           let u = Mem_surface.get in_edgs ~buf:ch.buf !e in
                           if Mem_surface.get cur_dense ~buf:ch.buf u then begin
                             Mem_surface.set parent ~buf:ch.buf v u;
                             Mem_surface.set next_dense ~buf:ch.buf v true;
                             next := v :: !next;
                             found := true
                           end;
                           incr e;
                           maybe_flush ch
                         done
                       end
                     done
                   end
                   else begin
                     (* top-down: split the sparse frontier *)
                     let f = !frontier in
                     let len = Array.length f in
                     let lo = w * len / nworkers and hi = ((w + 1) * len / nworkers) - 1 in
                     for i = lo to hi do
                       let u = f.(i) in
                       ch.compute <- Int64.add ch.compute cycles_per_vertex;
                       let o0 = Mem_surface.get offs ~buf:ch.buf u in
                       let o1 = Mem_surface.get offs ~buf:ch.buf (u + 1) in
                       for e = o0 to o1 - 1 do
                         ch.compute <- Int64.add ch.compute cycles_per_edge;
                         let v = Mem_surface.get edgs ~buf:ch.buf e in
                         if Mem_surface.get parent ~buf:ch.buf v = -1 then begin
                           (* CAS wins: sim fibers only switch at suspension
                              points, so this read-modify-write is atomic *)
                           Mem_surface.set parent ~buf:ch.buf v u;
                           next := v :: !next
                         end;
                         maybe_flush ch
                       done
                     done
                   end;
                   flush_charger ch;
                   results.(w) <- !next;
                   Sim.Sync.Ivar.fill dones.(w) ())
            in
            ctxs := wctx :: !ctxs
          done;
          Array.iter Sim.Sync.Ivar.read dones;
          let next_frontier = Array.concat (List.map Array.of_list (Array.to_list results)) in
          visited := !visited + Array.length next_frontier;
          (* swap dense bitmaps for the next round *)
          if dense then begin
            let b = Sim.Costbuf.create () in
            for v = 0 to n - 1 do
              let nv = Mem_surface.get next_dense ~buf:b v in
              Mem_surface.set cur_dense ~buf:b v nv;
              if nv then Mem_surface.set next_dense ~buf:b v false
            done;
            Sim.Costbuf.charge b;
            frontier_is_dense := true
          end
          else frontier_is_dense := false;
          frontier := next_frontier;
          if Array.length next_frontier = 0 then continue_ := false
        done;
        List.iter Mem_surface.free
          [ offs; edgs; in_offs; in_edgs ];
        Mem_surface.free parent;
        Mem_surface.free cur_dense;
        Mem_surface.free next_dense)
  in
  Sim.Engine.run eng;
  ignore main_ctx;
  {
    rounds = !rounds;
    visited = !visited;
    elapsed_cycles = Int64.sub (Sim.Engine.now eng) start_time;
    thread_ctxs = main_ctx :: !ctxs;
  }
