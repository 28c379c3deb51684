(* Tests for the storage device models (lib/sdevice). *)

let psz = Hw.Defs.page_size
let c = Hw.Costs.default
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

(* Run [f] in a fresh engine fiber and return the elapsed virtual cycles. *)
let in_fiber f =
  let eng = Sim.Engine.create () in
  let out = ref None in
  ignore (Sim.Engine.spawn eng (fun () -> out := Some (f ())));
  Sim.Engine.run eng;
  (Option.get !out, Sim.Engine.now eng)

(* The store's bytes [\[addr, addr+len)], gathered from whole pages.  The
   result starts as 'x' bytes, so a page the store fails to land shows. *)
let read_span s ~addr ~len =
  let first = addr / psz in
  let count = ((addr + len + psz - 1) / psz) - first in
  let dst = Bytes.make len 'x' in
  Sdevice.Pagestore.read_pages s ~page:first ~count ~into:(fun i b ->
      let base = (first + i) * psz in
      let lo = max addr base and hi = min (addr + len) (base + psz) in
      Bytes.blit b (lo - base) dst (lo - addr) (hi - lo));
  dst

(* An [into] that lands page [i] at [i * psz] of [dst]. *)
let into_buf dst i b = Bytes.blit b 0 dst (i * psz) psz

(* ---- Pagestore ---- *)

let pagestore_roundtrip () =
  let s = Sdevice.Pagestore.create () in
  let src = Bytes.of_string "hello across a page boundary!" in
  let addr = Int64.of_int (psz - 5) in
  Sdevice.Pagestore.write_bytes s ~addr ~src ~src_off:0 ~len:(Bytes.length src);
  let dst = read_span s ~addr:(Int64.to_int addr) ~len:(Bytes.length src) in
  Alcotest.(check string) "crosses pages" (Bytes.to_string src) (Bytes.to_string dst);
  checki "two pages materialized" 2 (Sdevice.Pagestore.allocated_pages s)

let pagestore_zero_fill () =
  let s = Sdevice.Pagestore.create () in
  let dst = read_span s ~addr:123456 ~len:8 in
  Alcotest.(check string) "unwritten reads zero" (String.make 8 '\000')
    (Bytes.to_string dst);
  checki "reads allocate nothing" 0 (Sdevice.Pagestore.allocated_pages s)

let pagestore_pages () =
  let s = Sdevice.Pagestore.create () in
  let page = Bytes.make psz 'A' in
  Sdevice.Pagestore.write_page s ~page:7 ~src:page;
  let back = Bytes.create psz in
  Sdevice.Pagestore.read_page s ~page:7 ~dst:back;
  Alcotest.(check bool) "page equal" true (Bytes.equal page back)

let pagestore_digest () =
  let image pages =
    let s = Sdevice.Pagestore.create () in
    List.iter
      (fun (page, c) -> Sdevice.Pagestore.write_page s ~page ~src:(Bytes.make psz c))
      pages;
    Sdevice.Pagestore.digest s
  in
  let same = Alcotest.(check bool) in
  same "write order does not matter" true
    (image [ (3, 'a'); (9, 'b') ] = image [ (9, 'b'); (3, 'a') ]);
  same "zero pages digest as unwritten" true
    (image [ (3, 'a'); (5, '\000') ] = image [ (3, 'a') ]);
  same "page number counts" false (image [ (3, 'a') ] = image [ (4, 'a') ]);
  same "bytes count" false (image [ (3, 'a') ] = image [ (3, 'b') ])

let pagestore_prop =
  QCheck.Test.make ~name:"pagestore read-after-write at random offsets" ~count:100
    QCheck.(pair (int_bound 100000) (string_of_size (QCheck.Gen.int_range 1 5000)))
    (fun (off, data) ->
      data = ""
      ||
      let s = Sdevice.Pagestore.create () in
      let src = Bytes.of_string data in
      Sdevice.Pagestore.write_bytes s ~addr:(Int64.of_int off) ~src ~src_off:0
        ~len:(Bytes.length src);
      Bytes.equal src (read_span s ~addr:off ~len:(Bytes.length src)))

(* ---- Block device / NVMe ---- *)

let nvme_latency_envelope () =
  let d = Sdevice.Nvme.create () in
  let t4k = Sdevice.Block_dev.service_time d ~len:psz in
  let us = Int64.to_float t4k /. 2400. in
  Alcotest.(check bool) "4K read ~10us (within 8-14us)" true (us > 8. && us < 14.);
  let t128k = Sdevice.Block_dev.service_time d ~len:(32 * psz) in
  Alcotest.(check bool) "sequential amortizes setup" true
    (Int64.to_float t128k < 32. *. Int64.to_float t4k)

let block_dev_queueing () =
  (* 12 concurrent 4K reads on 6 channels take two service rounds *)
  let d = Sdevice.Nvme.create () in
  let svc = Sdevice.Block_dev.service_time d ~len:psz in
  let eng = Sim.Engine.create () in
  for i = 0 to 11 do
    ignore
      (Sim.Engine.spawn eng ~core:i (fun () ->
           ignore (Sdevice.Block_dev.read_result d ~page:i ~count:1 ~into:(fun _ _ -> ()))))
  done;
  Sim.Engine.run eng;
  check64 "two rounds" (Int64.mul 2L svc) (Sim.Engine.now eng);
  checki "reads counted" 12 (Sdevice.Block_dev.reads d);
  Alcotest.(check bool) "queueing recorded" true (Sdevice.Block_dev.queued_cycles d > 0L)

let block_dev_bounds () =
  let d = Sdevice.Nvme.create ~capacity_bytes:8192L () in
  let into = into_buf (Bytes.create psz) in
  Alcotest.check_raises "out of capacity"
    (Invalid_argument "nvme0: I/O outside device capacity") (fun () ->
      ignore (in_fiber (fun () -> Sdevice.Block_dev.read_result d ~page:2 ~count:1 ~into)))

let block_dev_data () =
  let d = Sdevice.Nvme.create () in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make psz 'Q' in
         let ok = Alcotest.(check bool) "completed" true in
         ok (Sdevice.Block_dev.write_result d ~addr:4096L ~src ~src_off:0 ~len:psz = Ok ());
         let dst = Bytes.create psz in
         ok (Sdevice.Block_dev.read_result d ~page:1 ~count:1 ~into:(into_buf dst) = Ok ());
         Alcotest.(check bool) "data persisted" true (Bytes.equal src dst)))

(* ---- Pmem / DAX ---- *)

let pmem_dax_costs () =
  let p = Sdevice.Pmem.create () in
  let into = into_buf (Bytes.create psz) in
  let simd = Sdevice.Pmem.dax_read p c ~simd:true ~page:0 ~count:1 ~into in
  let scalar = Sdevice.Pmem.dax_read p c ~simd:false ~page:0 ~count:1 ~into in
  Alcotest.(check bool) "SIMD ~2x cheaper" true
    (Int64.to_float scalar /. Int64.to_float simd > 1.7);
  checki "reads counted" 2 (Sdevice.Pmem.dax_reads p)

let pmem_dax_roundtrip () =
  let p = Sdevice.Pmem.create () in
  let src = Bytes.of_string "persistent bytes" in
  ignore
    (Sdevice.Pmem.dax_write p c ~simd:true ~addr:4000L ~src ~src_off:0
       ~len:(Bytes.length src));
  let dst = Bytes.create (2 * psz) in
  ignore (Sdevice.Pmem.dax_read p c ~simd:true ~page:0 ~count:2 ~into:(into_buf dst));
  Alcotest.(check bool) "roundtrip" true
    (Bytes.equal src (Bytes.sub dst 4000 (Bytes.length src)))

(* ---- Access methods ---- *)

(* A two-page DAX read is one copy: one derated [memcpy_bytes (2 * psz)]
   (the FPU save/restore paid once) and one counted read. *)
let access_dax_two_pages_one_copy () =
  let p = Sdevice.Pmem.create () in
  let a = Sdevice.Access.dax_pmem c p in
  let dst = Bytes.create (2 * psz) in
  let (), cycles =
    in_fiber (fun () -> Sdevice.Access.read_pages a ~page:4 ~count:2 ~into:(into_buf dst))
  in
  let nvm_read_factor = 1.25 (* Pmem's derating of DRAM memcpy for NVM reads *) in
  let one_copy = Hw.Costs.memcpy_bytes c ~simd:true (2 * psz) in
  check64 "one derated memcpy of two pages"
    (Int64.of_float (Int64.to_float one_copy *. nvm_read_factor))
    cycles;
  checki "one dax read" 1 (Sdevice.Pmem.dax_reads p);
  Alcotest.(check bool) "cheaper than two one-page copies" true
    (Int64.compare one_copy (Int64.mul 2L (Hw.Costs.memcpy_bytes c ~simd:true psz)) < 0)

let cost_of access =
  let (), cycles =
    in_fiber (fun () ->
        let b = Bytes.create psz in
        Sdevice.Access.read_page access ~page:0 ~dst:b)
  in
  cycles

let access_cost_ordering () =
  (* For a 4K pmem read: DAX < HOST(kernel) < HOST(user) < HOST(guest). *)
  let p () = Sdevice.Pmem.create () in
  let dax = cost_of (Sdevice.Access.dax_pmem c (p ())) in
  let kern = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.In_kernel (p ())) in
  let user = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_user (p ())) in
  let guest = cost_of (Sdevice.Access.host_pmem c ~entry:Sdevice.Access.From_guest (p ())) in
  Alcotest.(check bool) "dax < kernel path" true (dax < kern);
  Alcotest.(check bool) "kernel < syscall" true (kern < user);
  Alcotest.(check bool) "syscall < vmcall" true (user < guest)

let access_spdk_vs_host_nvme () =
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_guest
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "SPDK bypass cheaper" true (spdk < host)

let access_uring_between_spdk_and_host () =
  (* io_uring amortizes syscalls: cheaper than synchronous host I/O but
     still above the kernel-bypass SPDK path *)
  let spdk = cost_of (Sdevice.Access.spdk_nvme c (Sdevice.Nvme.create ())) in
  let uring =
    cost_of
      (Sdevice.Access.uring_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  let host =
    cost_of
      (Sdevice.Access.host_nvme c ~entry:Sdevice.Access.From_user
         (Sdevice.Nvme.create ()))
  in
  Alcotest.(check bool) "spdk < uring" true (spdk < uring);
  Alcotest.(check bool) "uring < host sync" true (uring < host)

let access_moves_data () =
  let nvme = Sdevice.Nvme.create () in
  let a = Sdevice.Access.spdk_nvme c nvme in
  ignore
    (in_fiber (fun () ->
         let src = Bytes.make (2 * psz) 'Z' in
         Sdevice.Access.write_pages a ~page:3 ~count:2 ~src;
         let dst = Bytes.create (2 * psz) in
         Sdevice.Access.read_pages a ~page:3 ~count:2 ~into:(into_buf dst);
         Alcotest.(check bool) "multi-page roundtrip" true (Bytes.equal src dst)))

let access_rejects_small_buffer () =
  let p = Sdevice.Pmem.create () in
  let a = Sdevice.Access.dax_pmem c p in
  Alcotest.check_raises "buffer too small" (Invalid_argument "Access: buffer too small")
    (fun () ->
      ignore
        (in_fiber (fun () ->
             Sdevice.Access.write_pages a ~page:0 ~count:2 ~src:(Bytes.create psz))));
  Alcotest.check_raises "offset leaves too little" (Invalid_argument "Access: buffer too small")
    (fun () ->
      ignore
        (in_fiber (fun () ->
             Sdevice.Access.write_pages a ~page:0 ~count:1 ~src:(Bytes.create psz)
               ~src_off:1)));
  Alcotest.check_raises "read_page checks its page" (Invalid_argument "Access: buffer too small")
    (fun () ->
      ignore (in_fiber (fun () -> Sdevice.Access.read_page a ~page:0 ~dst:(Bytes.create 8))));
  checki "no read issued" 0 (Sdevice.Pmem.dax_reads p)

(* ---- Bufpool ---- *)

let bufpool_reuse () =
  let pool = Sdevice.Bufpool.create ~pages:4 in
  let a = Sdevice.Bufpool.take pool in
  let b = Sdevice.Bufpool.take pool in
  checki "sized in pages" (4 * psz) (Bytes.length a);
  Alcotest.(check bool) "outstanding buffers are distinct" false (a == b);
  Sdevice.Bufpool.give pool a;
  Alcotest.(check bool) "take after give reuses" true (Sdevice.Bufpool.take pool == a);
  Alcotest.check_raises "pages must be positive"
    (Invalid_argument "Bufpool.create: pages must be positive") (fun () ->
      ignore (Sdevice.Bufpool.create ~pages:0))

let () =
  Alcotest.run "sdevice"
    [
      ( "pagestore",
        [
          Alcotest.test_case "roundtrip across pages" `Quick pagestore_roundtrip;
          Alcotest.test_case "zero fill" `Quick pagestore_zero_fill;
          Alcotest.test_case "whole pages" `Quick pagestore_pages;
          Alcotest.test_case "digest" `Quick pagestore_digest;
          QCheck_alcotest.to_alcotest pagestore_prop;
        ] );
      ( "block dev",
        [
          Alcotest.test_case "nvme latency envelope" `Quick nvme_latency_envelope;
          Alcotest.test_case "queueing" `Quick block_dev_queueing;
          Alcotest.test_case "capacity bounds" `Quick block_dev_bounds;
          Alcotest.test_case "data" `Quick block_dev_data;
        ] );
      ( "pmem",
        [
          Alcotest.test_case "dax costs" `Quick pmem_dax_costs;
          Alcotest.test_case "dax roundtrip" `Quick pmem_dax_roundtrip;
        ] );
      ( "access",
        [
          Alcotest.test_case "cost ordering" `Quick access_cost_ordering;
          Alcotest.test_case "spdk vs host nvme" `Quick access_spdk_vs_host_nvme;
          Alcotest.test_case "io_uring in between" `Quick access_uring_between_spdk_and_host;
          Alcotest.test_case "moves data" `Quick access_moves_data;
          Alcotest.test_case "two-page dax read is one copy" `Quick
            access_dax_two_pages_one_copy;
          Alcotest.test_case "buffer validation" `Quick access_rejects_small_buffer;
        ] );
      ("bufpool", [ Alcotest.test_case "reuse" `Quick bufpool_reuse ]);
    ]
