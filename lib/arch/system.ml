open Msched_netlist

type channel = {
  channel_index : int;
  src : Ids.Fpga.t;
  dst : Ids.Fpga.t;
  width : int;
}

type t = {
  topology : Topology.t;
  pins_per_fpga : int;
  vclock_hz : float;
  channels : channel array;
  out_csr : csr;
  in_csr : csr;
  index : (int * int, int) Hashtbl.t;  (* (src, dst) -> channel_index *)
  hops : int array;  (* (f * n) + g -> hop count from f to g *)
}

and csr = { offsets : int array; ids : int array; ends : int array }

let xilinx_4062_pins = 240
let default_vclock_hz = 34.0e6

let make ?(vclock_hz = default_vclock_hz) topology ~pins_per_fpga =
  if pins_per_fpga <= 0 then invalid_arg "System.make: pins_per_fpga";
  if vclock_hz <= 0.0 then invalid_arg "System.make: vclock_hz";
  let n = Topology.num_fpgas topology in
  (* Pins are divided over the incident directed channels of each FPGA;
     out and in channels both consume pins. *)
  let afford f =
    let deg = Topology.degree topology f in
    if deg = 0 then max_int else pins_per_fpga / (2 * deg)
  in
  let channels = ref [] in
  let idx = ref 0 in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          let width = min (afford src) (afford dst) in
          if width <= 0 then
            invalid_arg
              (Format.asprintf
                 "System.make: pin budget %d gives channel %a->%a zero wires"
                 pins_per_fpga Ids.Fpga.pp src Ids.Fpga.pp dst);
          channels := { channel_index = !idx; src; dst; width } :: !channels;
          incr idx)
        (Topology.neighbors topology src))
    (Topology.fpgas topology);
  let channels = Array.of_list (List.rev !channels) in
  let index = Hashtbl.create (Array.length channels) in
  Array.iter
    (fun c ->
      Hashtbl.replace index
        (Ids.Fpga.to_int c.src, Ids.Fpga.to_int c.dst)
        c.channel_index)
    channels;
  (* Channels grouped by one endpoint, in channel-index order (a counting
     sort on [near]). *)
  let csr ~near ~far =
    let offsets = Array.make (n + 1) 0 in
    Array.iter
      (fun c ->
        let f = Ids.Fpga.to_int (near c) in
        offsets.(f + 1) <- offsets.(f + 1) + 1)
      channels;
    for f = 0 to n - 1 do
      offsets.(f + 1) <- offsets.(f + 1) + offsets.(f)
    done;
    let ids = Array.make (Array.length channels) 0 in
    let ends = Array.make (Array.length channels) 0 in
    let next = Array.sub offsets 0 n in
    Array.iter
      (fun c ->
        let f = Ids.Fpga.to_int (near c) in
        ids.(next.(f)) <- c.channel_index;
        ends.(next.(f)) <- Ids.Fpga.to_int (far c);
        next.(f) <- next.(f) + 1)
      channels;
    { offsets; ids; ends }
  in
  {
    topology;
    pins_per_fpga;
    vclock_hz;
    channels;
    out_csr = csr ~near:(fun c -> c.src) ~far:(fun c -> c.dst);
    in_csr = csr ~near:(fun c -> c.dst) ~far:(fun c -> c.src);
    index;
    hops =
      Array.init (n * n) (fun i ->
          Topology.distance topology (Ids.Fpga.of_int (i / n))
            (Ids.Fpga.of_int (i mod n)));
  }

let topology t = t.topology
let pins_per_fpga t = t.pins_per_fpga
let vclock_hz t = t.vclock_hz
let num_fpgas t = Topology.num_fpgas t.topology
let channels t = t.channels
let channel t i = t.channels.(i)

let channel_between t ~src ~dst =
  match Hashtbl.find_opt t.index (Ids.Fpga.to_int src, Ids.Fpga.to_int dst) with
  | Some i -> Some t.channels.(i)
  | None -> None

let adjacent t csr f =
  let lo = csr.offsets.(Ids.Fpga.to_int f) in
  List.init
    (csr.offsets.(Ids.Fpga.to_int f + 1) - lo)
    (fun k -> t.channels.(csr.ids.(lo + k)))

let out_channels t f = adjacent t t.out_csr f
let in_channels t f = adjacent t t.in_csr f
let out_csr t = t.out_csr
let in_csr t = t.in_csr
let hops t = t.hops

let distance t a b =
  t.hops.((Ids.Fpga.to_int a * num_fpgas t) + Ids.Fpga.to_int b)

let pins_used_per_fpga t f =
  let sum = List.fold_left (fun acc c -> acc + c.width) 0 in
  sum (out_channels t f) + sum (in_channels t f)

let pp ppf t =
  Format.fprintf ppf "%a, %d pins/FPGA, %.1f MHz vclock, %d channels"
    Topology.pp t.topology t.pins_per_fpga (t.vclock_hz /. 1e6)
    (Array.length t.channels)
