type t = {
  n : int;
  m : int;
  offsets : int array;
  edges : int array;
  in_offsets : int array;
  in_edges : int array;
}

(* CSR offsets of [m] edges grouped by [key i], which lies in [0, n):
   [offsets.(v)] counts the edges whose key is below [v]. *)
let offsets_of ~n ~m key =
  let offsets = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    let k = key i in
    offsets.(k + 1) <- offsets.(k + 1) + 1
  done;
  for v = 1 to n do
    offsets.(v) <- offsets.(v - 1) + offsets.(v)
  done;
  offsets

let of_edge_array ~n arr =
  let m = Array.length arr in
  Array.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg "Graph: vertex out of range")
    arr;
  let offsets = offsets_of ~n ~m (fun i -> fst arr.(i)) in
  let cursor = Array.sub offsets 0 n in
  let edges = Array.make m 0 in
  Array.iter
    (fun (s, d) ->
      edges.(cursor.(s)) <- d;
      cursor.(s) <- cursor.(s) + 1)
    arr;
  (* The in-CSR is built from the out-CSR, not from [arr]: scanning
     sources in ascending order lists each vertex's in-neighbours
     ascending, the order bottom-up BFS probes them in. *)
  let in_offsets = offsets_of ~n ~m (fun i -> edges.(i)) in
  Array.blit in_offsets 0 cursor 0 n;
  let in_edges = Array.make m 0 in
  for u = 0 to n - 1 do
    for e = offsets.(u) to offsets.(u + 1) - 1 do
      let v = edges.(e) in
      in_edges.(cursor.(v)) <- u;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { n; m; offsets; edges; in_offsets; in_edges }

let of_edge_list ~n l = of_edge_array ~n (Array.of_list l)

let out_degree t v = t.offsets.(v + 1) - t.offsets.(v)

let iter_neighbors t v f =
  for i = t.offsets.(v) to t.offsets.(v + 1) - 1 do
    f t.edges.(i)
  done

let bytes t = 8 * (t.n + 1 + t.m)
