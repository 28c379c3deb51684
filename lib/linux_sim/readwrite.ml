let psz = Hw.Defs.page_size

type direct = {
  dcosts : Hw.Costs.t;
  daccess : Sdevice.Access.t;
  dtranslate : int -> int option;
}

type buffered = { pc : Page_cache.t; file_id : int }
type mode = Direct of direct | Buffered of buffered

type fd = {
  mode : mode;
  fsize_pages : int;
  mutable nreads : int;
  mutable nwrites : int;
}

let open_direct ~costs ~access ~translate ~size_pages =
  {
    mode = Direct { dcosts = costs; daccess = access; dtranslate = translate };
    fsize_pages = size_pages;
    nreads = 0;
    nwrites = 0;
  }

let open_buffered ~pc ~file_id ~size_pages =
  { mode = Buffered { pc; file_id }; fsize_pages = size_pages; nreads = 0; nwrites = 0 }

let size_pages fd = fd.fsize_pages

let check fd ~off ~len =
  if off < 0 || len < 0 || off + len > fd.fsize_pages * psz then
    invalid_arg "Readwrite: range outside file"

(* Device pages covering [off, off+len), as (first_page, count); an
   empty range covers none. *)
let span ~off ~len =
  let first = off / psz in
  if len = 0 then (first, 0) else (first, ((off + len - 1) / psz) - first + 1)

(* O_DIRECT moves whole pages: split file pages [first, first+count)
   into device-contiguous runs and call [f file_page dev_page run] on
   each. *)
let runs d ~first ~count f =
  let rec go p remaining =
    if remaining > 0 then
      match d.dtranslate p with
      | None -> invalid_arg "Readwrite: beyond end of file"
      | Some dev0 ->
          let run = ref 1 in
          while
            !run < remaining
            && match d.dtranslate (p + !run) with
               | Some dv -> dv = dev0 + !run
               | None -> false
          do
            incr run
          done;
          f p dev0 !run;
          go (p + !run) (remaining - !run)
  in
  go first count

let pread fd ~off ~len ~dst =
  check fd ~off ~len;
  if Bytes.length dst < len then invalid_arg "Readwrite.pread: dst too small";
  fd.nreads <- fd.nreads + 1;
  match fd.mode with
  | Direct d ->
      (* each page lands straight in [dst], clipped to [off, off+len) *)
      let first, count = span ~off ~len in
      runs d ~first ~count (fun p dev run ->
          Sdevice.Access.read_pages d.daccess ~page:dev ~count:run
            ~into:(fun i src ->
              let base = (p + i) * psz in
              let lo = max off base and hi = min (off + len) (base + psz) in
              Bytes.blit src (lo - base) dst (lo - off) (hi - lo)))
  | Buffered b ->
      let core = (Sim.Engine.self ()).Sim.Engine.core in
      let pos = ref 0 in
      while !pos < len do
        let abs = off + !pos in
        let page = abs / psz and in_page = abs mod psz in
        let chunk = min (len - !pos) (psz - in_page) in
        let key = Mcache.Pagekey.make ~file:b.file_id ~page in
        let pfn = Page_cache.buffered_read b.pc ~core ~key in
        Bytes.blit (Page_cache.pfn_data b.pc pfn) in_page dst !pos chunk;
        pos := !pos + chunk
      done

let pwrite fd ~off ~src =
  let len = Bytes.length src in
  check fd ~off ~len;
  fd.nwrites <- fd.nwrites + 1;
  match fd.mode with
  | Direct d ->
      if off mod psz <> 0 || len mod psz <> 0 then
        invalid_arg "Readwrite.pwrite: O_DIRECT requires page alignment";
      (* one snapshot: the device reads it only after the service time,
         and the caller may reuse [src] meanwhile *)
      let snap = Bytes.copy src and first = off / psz in
      runs d ~first ~count:(len / psz) (fun p dev run ->
          Sdevice.Access.write_pages d.daccess ~page:dev ~count:run ~src:snap
            ~src_off:((p - first) * psz))
  | Buffered b ->
      (* buffered write: fill page, modify, mark dirty *)
      let core = (Sim.Engine.self ()).Sim.Engine.core in
      let pos = ref 0 in
      while !pos < len do
        let abs = off + !pos in
        let page = abs / psz and in_page = abs mod psz in
        let chunk = min (len - !pos) (psz - in_page) in
        let key = Mcache.Pagekey.make ~file:b.file_id ~page in
        let pfn = Page_cache.buffered_read b.pc ~core ~key in
        Bytes.blit src !pos (Page_cache.pfn_data b.pc pfn) in_page chunk;
        Page_cache.set_dirty_key b.pc ~key;
        pos := !pos + chunk
      done

let reads fd = fd.nreads
let writes fd = fd.nwrites
