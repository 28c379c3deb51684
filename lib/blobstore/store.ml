type blob = {
  id : int;
  bname : string option;
  bcl_pages : int; (* pages per cluster, copied from the store *)
  mutable clusters : int array; (* cluster indices, in blob order *)
  mutable pages : int;
  xattrs : (string, string) Hashtbl.t;
}

(* One free list, built ascending; freed clusters go back on its head,
   so allocation is a pure function of the alloc/free history. *)
type t = {
  cl_pages : int;
  total_clusters : int;
  mutable free : int list; (* free cluster indices, taken from the head *)
  mutable nfree : int;
  blobs : (int, blob) Hashtbl.t;
  mutable next_id : int;
}

let create ~capacity_pages ?(cluster_pages = 256) () =
  if capacity_pages <= 0 || cluster_pages <= 0 then
    invalid_arg "Blobstore.create";
  let total = capacity_pages / cluster_pages in
  {
    cl_pages = cluster_pages;
    total_clusters = total;
    free = List.init total Fun.id;
    nfree = total;
    blobs = Hashtbl.create 64;
    next_id = 1;
  }

let cluster_pages t = t.cl_pages
let capacity_pages t = t.total_clusters * t.cl_pages
let free_pages t = t.nfree * t.cl_pages

let clusters_for t pages = (pages + t.cl_pages - 1) / t.cl_pages

let free_cluster t c =
  t.free <- c :: t.free;
  t.nfree <- t.nfree + 1

let take_clusters t n =
  if n > t.nfree then failwith "Blobstore: out of space";
  let taken = Array.make n 0 in
  for i = 0 to n - 1 do
    match t.free with
    | c :: rest ->
        taken.(i) <- c;
        t.free <- rest
    | [] -> assert false (* [nfree] is the length of [free] *)
  done;
  t.nfree <- t.nfree - n;
  taken

let create_blob t ?name ~pages () =
  let clusters = take_clusters t (clusters_for t pages) in
  let b =
    {
      id = t.next_id;
      bname = name;
      bcl_pages = t.cl_pages;
      clusters;
      pages;
      xattrs = Hashtbl.create 4;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.blobs b.id b;
  b

let open_blob t id =
  match Hashtbl.find_opt t.blobs id with
  | Some b -> b
  | None -> raise Not_found

let blob_id b = b.id
let blob_name b = b.bname
let blob_pages b = b.pages

let resize t b ~pages =
  let have = Array.length b.clusters in
  let need = clusters_for t pages in
  if need > have then begin
    let extra = take_clusters t (need - have) in
    b.clusters <- Array.append b.clusters extra
  end
  else if need < have then begin
    for i = need to have - 1 do
      free_cluster t b.clusters.(i)
    done;
    b.clusters <- Array.sub b.clusters 0 need
  end;
  b.pages <- pages

let delete t b =
  Array.iter (fun c -> free_cluster t c) b.clusters;
  b.clusters <- [||];
  b.pages <- 0;
  Hashtbl.remove t.blobs b.id

let set_xattr b k v = Hashtbl.replace b.xattrs k v
let get_xattr b k = Hashtbl.find_opt b.xattrs k

let device_page b p =
  if p < 0 || p >= b.pages then invalid_arg "Blobstore.device_page: out of range";
  let cl = p / b.bcl_pages and off = p mod b.bcl_pages in
  (b.clusters.(cl) * b.bcl_pages) + off

let contiguous_run b p =
  if p < 0 || p >= b.pages then invalid_arg "Blobstore.contiguous_run: out of range";
  let rec go q run =
    if q >= b.pages then run
    else if q mod b.bcl_pages <> 0 then go (q + 1) (run + 1)
    else
      (* crossing into cluster q/bcl_pages: contiguous only if adjacent *)
      let prev_cl = b.clusters.((q - 1) / b.bcl_pages) in
      let this_cl = b.clusters.(q / b.bcl_pages) in
      if this_cl = prev_cl + 1 then go (q + 1) (run + 1) else run
  in
  go (p + 1) 1

let blob_count t = Hashtbl.length t.blobs
