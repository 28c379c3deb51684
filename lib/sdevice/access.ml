type entry = From_user | From_guest | In_kernel

type t = {
  aname : string;
  do_read :
    page:int -> count:int -> into:(int -> Bytes.t -> unit) -> (unit, Fault.error) result;
  do_write :
    page:int -> count:int -> src:Bytes.t -> src_off:int -> (unit, Fault.error) result;
}

let psz = Hw.Defs.page_size
let name t = t.aname

let check_count count =
  if count <= 0 then invalid_arg "Access: count must be positive"

let entry_cost (c : Hw.Costs.t) = function
  | From_user -> c.syscall
  | From_guest -> c.vmcall_roundtrip
  | In_kernel -> 0L

let addr_of page = Int64.mul (Int64.of_int page) (Int64.of_int psz)

let dax_pmem costs ?(simd = true) pmem =
  let aname = if simd then "DAX-pmem" else "DAX-pmem-scalar" in
  (* DAX copies complete synchronously, but NVM media errors are as real
     as NVMe ones (machine-check on load, failed store): consult the
     plan per copy.  A torn injection models an interrupted NT-store
     sequence — a page-aligned prefix of the span lands. *)
  let charge cost = Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_memcpy" cost in
  let read ~page ~count ~into =
    let failed =
      match Fault.active () with
      | None -> None
      | Some plan -> Fault.draw_read plan ~dev:aname ~page ~count
    in
    match failed with
    | Some e ->
        if Trace.on () then Sim.Probe.instant ~cat:"fault" "read_error";
        Error e
    | None ->
        charge (Pmem.dax_read pmem costs ~simd ~page ~count ~into);
        Ok ()
  in
  let write ~page ~count ~src ~src_off =
    let copy len =
      if len > 0 then
        charge (Pmem.dax_write pmem costs ~simd ~addr:(addr_of page) ~src ~src_off ~len)
    in
    match Fault.active () with
    | None ->
        copy (count * psz);
        Ok ()
    | Some plan -> (
        match Fault.draw_write plan ~dev:aname ~page ~count with
        | Fault.W_ok ->
            copy (count * psz);
            Ok ()
        | Fault.W_error e ->
            if Trace.on () then Sim.Probe.instant ~cat:"fault" "write_error";
            Error e
        | Fault.W_torn keep ->
            if Trace.on () then Sim.Probe.instant ~cat:"fault" "torn_write";
            copy (keep * psz);
            Error Fault.Transient)
  in
  { aname; do_read = read; do_write = write }

let spdk_nvme (costs : Hw.Costs.t) dev =
  (* SPDK submission/completion is a few hundred cycles of user-space
     driver code; completion is polled so device time burns CPU. *)
  let driver = 400L in
  let submit () = Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_driver" driver in
  ignore costs;
  {
    aname = "SPDK-NVMe";
    do_read =
      (fun ~page ~count ~into ->
        submit ();
        Block_dev.read_result ~polling:true dev ~page ~count ~into);
    do_write =
      (fun ~page ~count ~src ~src_off ->
        submit ();
        Block_dev.write_result ~polling:true dev ~addr:(addr_of page) ~src
          ~src_off ~len:(count * psz));
  }

let host_block ~aname (costs : Hw.Costs.t) ~entry ~wakeup ?(bounce = false) dev =
  let enter = entry_cost costs entry in
  (* Syscall entries additionally pay the VFS direct-I/O machinery (file
     position checks, iov setup, block mapping); the kernel fault path
     reaches the block layer directly (readpage). *)
  let vfs = match entry with In_kernel -> 0L | From_user | From_guest -> 5200L in
  (* Direct I/O from another protection domain bounces through a kernel
     buffer: one scalar page copy. *)
  let bounce_cost =
    match entry with
    | In_kernel -> 0L
    | From_user | From_guest -> if bounce then costs.memcpy_4k_scalar else 0L
  in
  let soft = Int64.add (Int64.add costs.kernel_block_layer vfs) bounce_cost in
  let prologue () =
    if Int64.compare enter 0L > 0 then
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_syscall" enter;
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel" soft
  in
  let epilogue () =
    if wakeup then
      Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel" costs.sched_wakeup
  in
  {
    aname;
    do_read =
      (fun ~page ~count ~into ->
        prologue ();
        let r = Block_dev.read_result dev ~page ~count ~into in
        epilogue ();
        r);
    do_write =
      (fun ~page ~count ~src ~src_off ->
        prologue ();
        let r =
          Block_dev.write_result dev ~addr:(addr_of page) ~src ~src_off
            ~len:(count * psz)
        in
        epilogue ();
        r);
  }

(* io_uring: one submission syscall covers a batch of SQEs; completions
   are read from the shared ring without any kernel entry. *)
let uring_batch = 16

let uring_nvme (costs : Hw.Costs.t) ~entry dev =
  let enter = entry_cost costs entry in
  let sqe = 350L (* prepare SQE + ring bookkeeping *) in
  let prologue () =
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_syscall"
      (Int64.div enter (Int64.of_int uring_batch));
    Sim.Engine.delay ~cat:Sim.Engine.Sys ~label:"io_kernel"
      (Int64.add sqe (Int64.div costs.kernel_block_layer 2L))
  in
  {
    aname = "io_uring-NVMe";
    do_read =
      (fun ~page ~count ~into ->
        prologue ();
        Block_dev.read_result dev ~page ~count ~into);
    do_write =
      (fun ~page ~count ~src ~src_off ->
        prologue ();
        Block_dev.write_result dev ~addr:(addr_of page) ~src ~src_off
          ~len:(count * psz));
  }

let host_pmem costs ~entry pmem =
  (* pmem completes synchronously in the submitting context: no interrupt,
     no scheduler wakeup. *)
  host_block ~aname:"HOST-pmem" costs ~entry ~wakeup:false ~bounce:true
    (Pmem.block_dev pmem)

let host_nvme costs ~entry dev =
  host_block ~aname:"HOST-NVMe" costs ~entry ~wakeup:true dev

(* Retry policy (DESIGN.md §7): transient failures are retried up to
   [max_attempts] times with exponential backoff in virtual time —
   20k cycles (~8 µs at 2.6 GHz), doubling per attempt, charged as idle
   under the "io_retry" label.  Permanent failures and exhausted retries
   surface to the caller. *)
let max_attempts = 5
let backoff_base = 20_000L

(* No per-instance record to hang a metric cell on here, and cells are
   domain-local — so bind one per domain, lazily, through DLS.  Retries
   are rare enough that the DLS lookup is irrelevant. *)
let m_retries_key : Metrics.Registry.cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Metrics.Registry.counter ~help:"transient I/O retries (with backoff)"
        "sdevice_io_retries")

(* Before attempt [n + 1]: count the retry and back off. *)
let backoff n =
  (match Fault.active () with Some p -> Fault.note_retry p | None -> ());
  Metrics.Registry.incr (Domain.DLS.get m_retries_key);
  if Trace.on () then Sim.Probe.instant ~cat:"fault" "io_retry";
  let cycles = Int64.mul backoff_base (Int64.shift_left 1L (n - 1)) in
  Sim.Engine.idle_wait cycles;
  Sim.Engine.label_add "io_retry" cycles

let rec read_attempt t ~page ~count ~into n =
  match t.do_read ~page ~count ~into with
  | Error Fault.Transient when n < max_attempts ->
      backoff n;
      read_attempt t ~page ~count ~into (n + 1)
  | r -> r

let rec write_attempt t ~page ~count ~src ~src_off n =
  match t.do_write ~page ~count ~src ~src_off with
  | Error Fault.Transient when n < max_attempts ->
      backoff n;
      write_attempt t ~page ~count ~src ~src_off (n + 1)
  | r -> r

let read_pages t ~page ~count ~into =
  check_count count;
  let t0 = Sim.Probe.span_start () in
  let r = read_attempt t ~page ~count ~into 1 in
  Sim.Probe.span_since ~cat:"sdevice" ~value:(Int64.of_int count) ~t0 "dev_read";
  match r with
  | Ok () -> ()
  | Error e ->
      raise (Fault.Io_error { dev = t.aname; write = false; page; error = e })

let write_pages_result ?(src_off = 0) t ~page ~count ~src =
  check_count count;
  if src_off < 0 || Bytes.length src < src_off + (count * psz) then
    invalid_arg "Access: buffer too small";
  let t0 = Sim.Probe.span_start () in
  let r = write_attempt t ~page ~count ~src ~src_off 1 in
  Sim.Probe.span_since ~cat:"sdevice" ~value:(Int64.of_int count) ~t0 "dev_write";
  r

let write_pages ?src_off t ~page ~count ~src =
  match write_pages_result ?src_off t ~page ~count ~src with
  | Ok () -> ()
  | Error e ->
      raise (Fault.Io_error { dev = t.aname; write = true; page; error = e })

let read_page t ~page ~dst =
  if Bytes.length dst < psz then invalid_arg "Access: buffer too small";
  read_pages t ~page ~count:1 ~into:(fun _ b -> Bytes.blit b 0 dst 0 psz)

let write_page t ~page ~src = write_pages t ~page ~count:1 ~src
