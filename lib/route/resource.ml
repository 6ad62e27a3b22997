module System = Msched_arch.System

type scratch = {
  mutable epoch : int;
  mutable seen : int array;
  mutable parent : int array;
  mutable via : int array;
  mutable queue : int array;
}

(* Occupancy of slots [0, rows) lives in [dense] at [rslot * nch + channel];
   rows double on demand up to [max_rows].  Any other slot — negative, or
   past the cap — lives in [sparse], so no slot number a caller passes
   sizes an allocation. *)
type t = {
  widths : int array;  (* physical wires per channel *)
  dedicated : int array;
  nch : int;
  max_rows : int;
  mutable rows : int;
  mutable dense : int array;
  sparse : (int * int, int) Hashtbl.t;  (* (channel, rslot) -> count *)
  peak : int array;
  mutable max_rslot : int;
  scratch : scratch;
}

(* Cap on the dense table: 2^20 words (8 MiB on 64-bit hosts). *)
let max_dense_words = 1 lsl 20
let initial_rows = 64

let create sys =
  let channels = System.channels sys in
  let nch = Array.length channels in
  let max_rows = max initial_rows (max_dense_words / max 1 nch) in
  {
    widths = Array.map (fun c -> c.System.width) channels;
    dedicated = Array.make nch 0;
    nch;
    max_rows;
    rows = initial_rows;
    dense = Array.make (initial_rows * nch) 0;
    sparse = Hashtbl.create 16;
    peak = Array.make nch 0;
    max_rslot = -1;
    scratch =
      {
        epoch = 0;
        seen = [||];
        parent = [||];
        via = [||];
        queue = [||];
      };
  }

let effective_width t ~channel = t.widths.(channel) - t.dedicated.(channel)

let dedicate t ~channel =
  if effective_width t ~channel <= 0 then
    invalid_arg "Resource.dedicate: channel exhausted";
  t.dedicated.(channel) <- t.dedicated.(channel) + 1

let dedicated t ~channel = t.dedicated.(channel)

(* [channel] must be in range. *)
let usage t channel rslot =
  if rslot >= 0 && rslot < t.rows then t.dense.((rslot * t.nch) + channel)
  else if (rslot >= 0 && rslot < t.max_rows) || Hashtbl.length t.sparse = 0
  then 0
  else Option.value ~default:0 (Hashtbl.find_opt t.sparse (channel, rslot))

let usage_at t ~channel ~rslot =
  if channel < 0 || channel >= t.nch then 0 else usage t channel rslot

let free_at t ~channel ~rslot =
  let width = effective_width t ~channel in
  usage t channel rslot < width

let set t channel rslot v =
  if rslot >= 0 && rslot < t.max_rows then begin
    if rslot >= t.rows then begin
      let rows = min t.max_rows (max (rslot + 1) (2 * t.rows)) in
      let dense = Array.make (rows * t.nch) 0 in
      Array.blit t.dense 0 dense 0 (Array.length t.dense);
      t.dense <- dense;
      t.rows <- rows
    end;
    t.dense.((rslot * t.nch) + channel) <- v
  end
  else Hashtbl.replace t.sparse (channel, rslot) v

let reserve t ~channel ~rslot =
  let width = effective_width t ~channel in
  let u = usage t channel rslot in
  if u >= width then invalid_arg "Resource.reserve: slot full";
  set t channel rslot (u + 1);
  if u + 1 > t.peak.(channel) then t.peak.(channel) <- u + 1;
  if rslot > t.max_rslot then t.max_rslot <- rslot

let peak_usage t = Array.copy t.peak
let max_rslot t = t.max_rslot
let scratch t = t.scratch
