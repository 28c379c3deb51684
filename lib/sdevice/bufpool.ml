type t = { bytes : int; mutable idle : Bytes.t list }

let create ~pages =
  if pages <= 0 then invalid_arg "Bufpool.create: pages must be positive";
  { bytes = pages * Hw.Defs.page_size; idle = [] }

let take t =
  match t.idle with
  | b :: rest ->
      t.idle <- rest;
      b
  | [] -> Bytes.create t.bytes

let give t b = t.idle <- b :: t.idle
