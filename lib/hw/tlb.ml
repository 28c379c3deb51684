type t = {
  slots : int array; (* -1 = empty; direct-mapped on vpn *)
  capacity : int;
  mutable invals : int;
  (* per-core instance cells of the unlabelled hw_tlb_* series *)
  m_hits : Metrics.Registry.cell;
  m_misses : Metrics.Registry.cell;
}

let create ?(capacity = 1536) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity";
  {
    slots = Array.make capacity (-1);
    capacity;
    invals = 0;
    m_hits = Metrics.Registry.counter ~help:"TLB hits" "hw_tlb_hits";
    m_misses =
      Metrics.Registry.counter ~help:"TLB misses (page walks)" "hw_tlb_misses";
  }

let slot_of t vpn = vpn mod t.capacity

let access t (c : Costs.t) ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then begin
    Metrics.Registry.incr t.m_hits;
    0L
  end
  else begin
    Metrics.Registry.incr t.m_misses;
    t.slots.(s) <- vpn;
    if Trace.on () then Sim.Probe.instant ~cat:"hw" "tlb_miss_walk";
    c.tlb_miss_walk
  end

let invalidate_page t ~vpn =
  let s = slot_of t vpn in
  if t.slots.(s) = vpn then begin
    t.slots.(s) <- -1;
    t.invals <- t.invals + 1
  end

let invalidate_local t (c : Costs.t) ~vpn =
  invalidate_page t ~vpn;
  c.tlb_invlpg

let flush t (c : Costs.t) =
  Array.fill t.slots 0 t.capacity (-1);
  t.invals <- t.invals + 1;
  c.tlb_full_flush

let hits t = Metrics.Registry.get t.m_hits
let misses t = Metrics.Registry.get t.m_misses
let invalidations t = t.invals
