let psz = Hw.Defs.page_size

type backend =
  | Dram
  | Aquila of Aquila.Context.t * Aquila.Context.region
  | Linux of Linux_sim.Mmap_sys.t * Linux_sim.Mmap_sys.region

type t = {
  backend : backend;
  mutable next_byte : int;
  limit_bytes : int;
  eb : int;
}

let dram () = { backend = Dram; next_byte = 0; limit_bytes = max_int; eb = 8 }

let aquila ?(elem_bytes = 8) ctx region =
  {
    backend = Aquila (ctx, region);
    next_byte = 0;
    limit_bytes = Aquila.Context.region_npages region * psz;
    eb = elem_bytes;
  }

let linux ?(elem_bytes = 8) msys region =
  {
    backend = Linux (msys, region);
    next_byte = 0;
    limit_bytes = Linux_sim.Mmap_sys.region_npages region * psz;
    eb = elem_bytes;
  }

let elem_bytes t = t.eb

let name t =
  match t.backend with
  | Dram -> "dram"
  | Aquila _ -> "aquila"
  | Linux _ -> "linux-mmap"

type 'a arr = {
  surf : t;
  page0 : int;  (* first region page; -1 for DRAM *)
  alen : int;
  writable : bool;
  mutable data : 'a array;
}

let carve t len =
  match t.backend with
  | Dram -> -1
  | Aquila _ | Linux _ ->
      (* page-align each array, as malloc-over-mmap does for large blocks *)
      let start = (t.next_byte + psz - 1) / psz * psz in
      let bytes = len * t.eb in
      if start + bytes > t.limit_bytes then
        failwith "Mem_surface: mmio heap exhausted";
      t.next_byte <- start + bytes;
      start / psz

let place t data =
  let alen = Array.length data in
  { surf = t; page0 = carve t alen; alen; writable = false; data }

let alloc t ~len ~init =
  let page0 = carve t len in
  { surf = t; page0; alen = len; writable = true; data = Array.init len init }

let page_of a i = a.page0 + (i * a.surf.eb / psz)

let touch a ~buf i ~write =
  match a.surf.backend with
  | Dram -> ()
  | Aquila (ctx, region) ->
      Aquila.Context.touch_buf ctx region ~page:(page_of a i) ~write ~buf
  | Linux (msys, region) ->
      Linux_sim.Mmap_sys.touch_buf msys region ~page:(page_of a i) ~write ~buf

let get a ~buf i =
  touch a ~buf i ~write:false;
  a.data.(i)

let set a ~buf i v =
  if not a.writable then invalid_arg "Mem_surface.set: placed array is read-only";
  touch a ~buf i ~write:true;
  a.data.(i) <- v

let len a = a.alen
let free a = a.data <- [||]
