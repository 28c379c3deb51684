(* Tests for the Linux baseline (lib/linux_sim): kernel page cache,
   mmap path, and read/write syscalls. *)

let psz = Hw.Defs.page_size
let checki = Alcotest.(check int)

type rig = {
  msys : Linux_sim.Mmap_sys.t;
  file : Linux_sim.Mmap_sys.file;
  store : Sdevice.Pagestore.t;
}

let make_rig ?(frames = 32) ?(readahead = 1) ?(file_pages = 256) () =
  let msys = Linux_sim.Mmap_sys.create { Linux_sim.Page_cache.frames; readahead } in
  let pmem =
    Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (file_pages * psz)) ()
  in
  let access =
    Sdevice.Access.host_pmem (Linux_sim.Mmap_sys.costs msys)
      ~entry:Sdevice.Access.In_kernel pmem
  in
  let file =
    Linux_sim.Mmap_sys.attach_file msys ~name:"t" ~access
      ~translate:(fun p -> if p < file_pages then Some p else None)
      ~size_pages:file_pages
  in
  { msys; file; store = Sdevice.Pmem.store pmem }

let in_sim f =
  let eng = Sim.Engine.create () in
  ignore (Sim.Engine.spawn eng ~core:0 f);
  Sim.Engine.run eng;
  eng

let mmap_rw_roundtrip () =
  let r = make_rig ~frames:16 () in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:100 () in
         for p = 0 to 99 do
           Linux_sim.Mmap_sys.write r.msys region ~off:(p * psz)
             ~src:(Bytes.make 8 (Char.chr (48 + (p mod 10))))
         done;
         for p = 0 to 99 do
           let dst = Bytes.create 8 in
           Linux_sim.Mmap_sys.read r.msys region ~off:(p * psz) ~len:8 ~dst;
           Alcotest.(check char) (Printf.sprintf "page %d" p)
             (Char.chr (48 + (p mod 10)))
             (Bytes.get dst 0)
         done;
         (* 100 pages through 16 frames: reclaim ran *)
         Alcotest.(check bool) "reclaimed" true
           (Linux_sim.Page_cache.evictions (Linux_sim.Mmap_sys.page_cache r.msys) > 0)))

(* Device page [p]'s bytes: each page its own pattern. *)
let page_pattern p = Bytes.init psz (fun i -> Char.chr ((((p + 1) * 37) + i) land 0xff))

let readahead_fills_cluster () =
  let r = make_rig ~frames:64 ~readahead:8 () in
  (* pages 0-6 of the window hold their own bytes; page 7 is unwritten *)
  for p = 0 to 6 do
    Sdevice.Pagestore.write_page r.store ~page:p ~src:(page_pattern p)
  done;
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:64 () in
         let pc = Linux_sim.Mmap_sys.page_cache r.msys in
         Linux_sim.Mmap_sys.touch r.msys region ~page:0 ~write:false;
         checki "one io for the window" 1 (Linux_sim.Page_cache.read_ios pc);
         Alcotest.(check bool) "neighbour resident" true
           (Linux_sim.Page_cache.is_resident pc
              ~key:(Mcache.Pagekey.make ~file:(Linux_sim.Mmap_sys.file_id r.file) ~page:7));
         (* the neighbour faults as a minor fault: no new I/O *)
         Linux_sim.Mmap_sys.touch r.msys region ~page:7 ~write:false;
         checki "still one io" 1 (Linux_sim.Page_cache.read_ios pc);
         (* every frame of the window landed its own page *)
         let dst = Bytes.create psz in
         for p = 0 to 7 do
           Linux_sim.Mmap_sys.read r.msys region ~off:(p * psz) ~len:psz ~dst;
           Alcotest.(check bool)
             (Printf.sprintf "frame of page %d holds its bytes" p)
             true
             (Bytes.equal dst
                (if p = 7 then Bytes.make psz '\000' else page_pattern p))
         done;
         checki "read from the window, no new io" 1 (Linux_sim.Page_cache.read_ios pc)))

let tree_lock_contends () =
  let r = make_rig ~frames:512 ~file_pages:2048 () in
  let eng = Sim.Engine.create () in
  let region = ref None in
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         region := Some (Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:2048 ())));
  Sim.Engine.run eng;
  for t = 0 to 7 do
    ignore
      (Sim.Engine.spawn eng ~core:t (fun () ->
           Linux_sim.Mmap_sys.enter_thread r.msys;
           for i = 0 to 127 do
             Linux_sim.Mmap_sys.touch r.msys (Option.get !region)
               ~page:((t * 128) + i) ~write:false
           done))
  done;
  Sim.Engine.run eng;
  Alcotest.(check bool) "tree_lock contention recorded" true
    (Linux_sim.Page_cache.tree_lock_contended (Linux_sim.Mmap_sys.page_cache r.msys)
    > 0L)

let msync_cleans () =
  let r = make_rig () in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:8 () in
         Linux_sim.Mmap_sys.write r.msys region ~off:0 ~src:(Bytes.make 16 'd');
         let pc = Linux_sim.Mmap_sys.page_cache r.msys in
         Alcotest.(check bool) "dirty" true (Linux_sim.Page_cache.dirty_pages pc > 0);
         Linux_sim.Mmap_sys.msync r.msys region;
         checki "clean" 0 (Linux_sim.Page_cache.dirty_pages pc);
         Alcotest.(check bool) "written" true
           (Linux_sim.Page_cache.writeback_ios pc > 0)))

(* Two fibers msync disjoint files at once over NVMe, whose writes
   suspend: each write-back run keeps its snapshot buffer until its write
   has landed, so every device page ends up with its own page's bytes. *)
let concurrent_msyncs_keep_their_snapshots () =
  let msys =
    Linux_sim.Mmap_sys.create (Linux_sim.Page_cache.default_config ~frames:64)
  in
  let dev = Sdevice.Nvme.create ~name:"wb-nvme" () in
  let access =
    Sdevice.Access.host_nvme (Linux_sim.Mmap_sys.costs msys)
      ~entry:Sdevice.Access.In_kernel dev
  in
  let dev_page i p = (i * 100) + p in
  let files =
    List.map
      (fun i ->
        Linux_sim.Mmap_sys.attach_file msys ~name:(Printf.sprintf "f%d" i) ~access
          ~translate:(fun p -> if p < 8 then Some (dev_page i p) else None)
          ~size_pages:8)
      [ 1; 2 ]
  in
  let fill i p = Char.chr (Char.code 'A' + (i * 8) + p) in
  let regions = ref [] in
  ignore
    (in_sim (fun () ->
         Linux_sim.Mmap_sys.enter_thread msys;
         regions :=
           List.mapi
             (fun k file ->
               let region = Linux_sim.Mmap_sys.mmap msys file ~npages:8 () in
               for p = 0 to 7 do
                 Linux_sim.Mmap_sys.write msys region ~off:(p * psz)
                   ~src:(Bytes.make psz (fill (k + 1) p))
               done;
               region)
             files));
  let eng = Sim.Engine.create () in
  List.iteri
    (fun core region ->
      ignore
        (Sim.Engine.spawn eng ~core (fun () ->
             Linux_sim.Mmap_sys.enter_thread msys;
             Linux_sim.Mmap_sys.msync msys region)))
    !regions;
  Sim.Engine.run eng;
  checki "two merged write ios" 2
    (Linux_sim.Page_cache.writeback_ios (Linux_sim.Mmap_sys.page_cache msys));
  let page = Bytes.create psz in
  List.iter
    (fun i ->
      for p = 0 to 7 do
        Sdevice.Pagestore.read_page (Sdevice.Block_dev.store dev) ~page:(dev_page i p)
          ~dst:page;
        Alcotest.(check bool)
          (Printf.sprintf "file %d page %d holds its page's bytes" i p)
          true
          (Bytes.equal page (Bytes.make psz (fill i p)))
      done)
    [ 1; 2 ]

let background_flusher_cleans () =
  let r = make_rig ~frames:128 ~file_pages:256 () in
  let eng = Sim.Engine.create () in
  let pc = Linux_sim.Mmap_sys.page_cache r.msys in
  Linux_sim.Page_cache.spawn_flusher pc ~eng ~hi:16 ~lo:4 ~core:1 ();
  ignore
    (Sim.Engine.spawn eng ~core:0 (fun () ->
         Linux_sim.Mmap_sys.enter_thread r.msys;
         let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:64 () in
         for p = 0 to 63 do
           Linux_sim.Mmap_sys.write r.msys region ~off:(p * psz)
             ~src:(Bytes.make 8 'f')
         done));
  Sim.Engine.run eng;
  Alcotest.(check bool)
    (Printf.sprintf "flushed below lo (%d dirty)"
       (Linux_sim.Page_cache.dirty_pages pc))
    true
    (Linux_sim.Page_cache.dirty_pages pc <= 4);
  Alcotest.(check bool) "writebacks happened" true
    (Linux_sim.Page_cache.writeback_ios pc > 0);
  Linux_sim.Page_cache.stop_flusher pc;
  Sim.Engine.run eng

let linux_fault_pays_ring3_trap () =
  let r = make_rig () in
  let eng =
    in_sim (fun () ->
        Linux_sim.Mmap_sys.enter_thread r.msys;
        let region = Linux_sim.Mmap_sys.mmap r.msys r.file ~npages:1 () in
        Linux_sim.Mmap_sys.touch r.msys region ~page:0 ~write:false)
  in
  ignore eng;
  checki "one fault" 1 (Linux_sim.Mmap_sys.faults r.msys)

(* Model-based property: random stores, loads, msyncs and munmap-then-
   remaps through the Linux mmap path agree with a flat in-memory model.
   The 8-frame cache is a third of the 24-page file, so reclaim writes
   pages back and refetches them; the file's device mapping breaks after
   page 11, so readahead windows and write-back runs split there. *)
type model_op =
  | Store of int * int * char (* offset, length, byte *)
  | Load of int * int (* offset, length *)
  | Msync
  | Remap

let model_file_pages = 24
let model_bytes = model_file_pages * psz
let model_dev p = if p < 12 then p else p + 28

let model_op_gen =
  let open QCheck.Gen in
  let range =
    int_range 1 (2 * psz) >>= fun len ->
    int_range 0 (model_bytes - len) >|= fun off -> (off, len)
  in
  frequency
    [
      (4, map2 (fun (off, len) c -> Store (off, len, c)) range printable);
      (4, map (fun (off, len) -> Load (off, len)) range);
      (1, return Msync);
      (1, return Remap);
    ]

let model_op_print = function
  | Store (off, len, ch) -> Printf.sprintf "store %d+%d %C" off len ch
  | Load (off, len) -> Printf.sprintf "load %d+%d" off len
  | Msync -> "msync"
  | Remap -> "remap"

let mmap_matches_model =
  QCheck.Test.make ~name:"linux mmap matches a flat model" ~count:40
    (QCheck.make
       ~print:QCheck.Print.(list model_op_print)
       QCheck.Gen.(list_size (int_range 1 80) model_op_gen))
    (fun ops ->
      let msys =
        Linux_sim.Mmap_sys.create { Linux_sim.Page_cache.frames = 8; readahead = 4 }
      in
      let pmem = Sdevice.Pmem.create ~capacity_bytes:(Int64.of_int (64 * psz)) () in
      let store = Sdevice.Pmem.store pmem in
      let model = Bytes.init model_bytes (fun i -> Char.chr (((i / psz) * 7) + 1)) in
      for p = 0 to model_file_pages - 1 do
        Sdevice.Pagestore.write_page store ~page:(model_dev p)
          ~src:(Bytes.sub model (p * psz) psz)
      done;
      let access =
        Sdevice.Access.host_pmem (Linux_sim.Mmap_sys.costs msys)
          ~entry:Sdevice.Access.In_kernel pmem
      in
      let file =
        Linux_sim.Mmap_sys.attach_file msys ~name:"model" ~access
          ~translate:(fun p -> if p < model_file_pages then Some (model_dev p) else None)
          ~size_pages:model_file_pages
      in
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf (fun s -> if !failure = None then failure := Some s) fmt
      in
      ignore
        (in_sim (fun () ->
             Linux_sim.Mmap_sys.enter_thread msys;
             let mmap () = Linux_sim.Mmap_sys.mmap msys file ~npages:model_file_pages () in
             let region = ref (mmap ()) in
             List.iteri
               (fun i op ->
                 match op with
                 | Store (off, len, ch) ->
                     Linux_sim.Mmap_sys.write msys !region ~off ~src:(Bytes.make len ch);
                     Bytes.fill model off len ch
                 | Load (off, len) ->
                     let dst = Bytes.create len in
                     Linux_sim.Mmap_sys.read msys !region ~off ~len ~dst;
                     if not (Bytes.equal dst (Bytes.sub model off len)) then
                       fail "op %d: load %d+%d differs from the model" i off len
                 | Msync ->
                     Linux_sim.Mmap_sys.msync msys !region;
                     for p = 0 to model_file_pages - 1 do
                       let dev = Bytes.create psz in
                       Sdevice.Pagestore.read_page store ~page:(model_dev p) ~dst:dev;
                       if not (Bytes.equal dev (Bytes.sub model (p * psz) psz)) then
                         fail "op %d: after msync, file page %d differs on the device" i p
                     done
                 | Remap ->
                     Linux_sim.Mmap_sys.munmap msys !region;
                     region := mmap ())
               ops));
      match !failure with None -> true | Some msg -> QCheck.Test.fail_report msg)

(* ---- Readwrite (direct / buffered syscalls) ---- *)

let direct_pread_pwrite () =
  let pmem = Sdevice.Pmem.create () in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let fd =
    Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default ~access
      ~translate:(fun p -> if p < 64 then Some (p + 10) else None)
      ~size_pages:64
  in
  ignore
    (in_sim (fun () ->
         let src = Bytes.make (2 * psz) 'D' in
         Linux_sim.Readwrite.pwrite fd ~off:(4 * psz) ~src;
         (* unaligned reads are fine (kernel rounds to pages) *)
         let dst = Bytes.create 100 in
         Linux_sim.Readwrite.pread fd ~off:((4 * psz) + 50) ~len:100 ~dst;
         Alcotest.(check string) "data" (String.make 100 'D') (Bytes.to_string dst)));
  checki "write counted" 1 (Linux_sim.Readwrite.writes fd);
  Alcotest.check_raises "O_DIRECT alignment"
    (Invalid_argument "Readwrite.pwrite: O_DIRECT requires page alignment") (fun () ->
      ignore
        (in_sim (fun () ->
             Linux_sim.Readwrite.pwrite fd ~off:5 ~src:(Bytes.create psz))))

(* An unaligned direct read across a page boundary that is also a break
   in the file's device mapping: two device reads, and each lands only
   its part of the range. *)
let direct_pread_across_translate_break () =
  let pmem = Sdevice.Pmem.create () in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  (* file pages 0-3 live at device 10-13, pages 4-7 at device 40-43 *)
  let dev p = if p < 4 then p + 10 else p + 36 in
  let fd =
    Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default ~access
      ~translate:(fun p -> if p < 8 then Some (dev p) else None)
      ~size_pages:8
  in
  for p = 0 to 7 do
    Sdevice.Pagestore.write_page (Sdevice.Pmem.store pmem) ~page:(dev p)
      ~src:(page_pattern p)
  done;
  let file = Bytes.concat Bytes.empty (List.init 8 page_pattern) in
  let off = (2 * psz) + 123 and len = (2 * psz) + 45 in
  let dst = Bytes.make (len + 8) '#' in
  ignore (in_sim (fun () -> Linux_sim.Readwrite.pread fd ~off ~len ~dst));
  Alcotest.(check string) "file bytes" (Bytes.sub_string file off len)
    (Bytes.sub_string dst 0 len);
  Alcotest.(check string) "nothing past len" "########" (Bytes.sub_string dst len 8);
  checki "one device read per run" 2
    (Sdevice.Block_dev.reads (Sdevice.Pmem.block_dev pmem))

(* A zero-length direct read is a syscall that moves nothing: no device
   read, at a page boundary or inside a page. *)
let direct_pread_empty () =
  let pmem = Sdevice.Pmem.create () in
  let access =
    Sdevice.Access.host_pmem Hw.Costs.default ~entry:Sdevice.Access.From_user pmem
  in
  let fd =
    Linux_sim.Readwrite.open_direct ~costs:Hw.Costs.default ~access
      ~translate:(fun p -> if p < 8 then Some p else None)
      ~size_pages:8
  in
  let reads () = Sdevice.Block_dev.reads (Sdevice.Pmem.block_dev pmem) in
  ignore
    (in_sim (fun () ->
         List.iter
           (fun off ->
             let before = reads () in
             Linux_sim.Readwrite.pread fd ~off ~len:0 ~dst:Bytes.empty;
             checki (Printf.sprintf "no device read at offset %d" off) before (reads ()))
           [ 0; 100 ]));
  checki "both syscalls counted" 2 (Linux_sim.Readwrite.reads fd)

let buffered_read_through_page_cache () =
  let r = make_rig ~frames:32 () in
  let pc = Linux_sim.Mmap_sys.page_cache r.msys in
  let fd =
    Linux_sim.Readwrite.open_buffered ~pc
      ~file_id:(Linux_sim.Mmap_sys.file_id r.file) ~size_pages:256
  in
  ignore
    (in_sim (fun () ->
         let dst = Bytes.create 10 in
         Linux_sim.Readwrite.pread fd ~off:0 ~len:10 ~dst;
         checki "filled via cache" 1 (Linux_sim.Page_cache.misses pc);
         Linux_sim.Readwrite.pread fd ~off:100 ~len:10 ~dst;
         checki "second read hits" 1 (Linux_sim.Page_cache.misses pc)))

let buffered_write_marks_dirty () =
  let r = make_rig ~frames:32 () in
  let pc = Linux_sim.Mmap_sys.page_cache r.msys in
  let fd =
    Linux_sim.Readwrite.open_buffered ~pc
      ~file_id:(Linux_sim.Mmap_sys.file_id r.file) ~size_pages:256
  in
  ignore
    (in_sim (fun () ->
         Linux_sim.Readwrite.pwrite fd ~off:123 ~src:(Bytes.of_string "buffered");
         Alcotest.(check bool) "dirty tagged" true
           (Linux_sim.Page_cache.dirty_pages pc > 0)))

let () =
  Alcotest.run "linux_sim"
    [
      ( "mmap",
        [
          Alcotest.test_case "rw roundtrip with reclaim" `Quick mmap_rw_roundtrip;
          Alcotest.test_case "fault readahead" `Quick readahead_fills_cluster;
          Alcotest.test_case "tree_lock contention" `Quick tree_lock_contends;
          Alcotest.test_case "msync" `Quick msync_cleans;
          Alcotest.test_case "concurrent msyncs keep their snapshots" `Quick
            concurrent_msyncs_keep_their_snapshots;
          Alcotest.test_case "background flusher" `Quick background_flusher_cleans;
          Alcotest.test_case "fault counted" `Quick linux_fault_pays_ring3_trap;
          QCheck_alcotest.to_alcotest mmap_matches_model;
        ] );
      ( "readwrite",
        [
          Alcotest.test_case "direct pread/pwrite" `Quick direct_pread_pwrite;
          Alcotest.test_case "direct pread across a mapping break" `Quick
            direct_pread_across_translate_break;
          Alcotest.test_case "buffered read" `Quick buffered_read_through_page_cache;
          Alcotest.test_case "buffered write dirties" `Quick buffered_write_marks_dirty;
          Alcotest.test_case "direct pread of zero bytes" `Quick direct_pread_empty;
        ] );
    ]
