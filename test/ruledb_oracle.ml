(* The record-scan rule DB that Netstack.Ruledb's compiled table
   replaced, kept verbatim as the oracle for the differential property
   in test_ruledb.ml: rules stay [Ruledb.rule] records with option
   fields, and the scan charges the clock rule by rule as it walks.
   Slow, but simple enough to read as the specification of both the
   verdict and the modelled cost. *)

open Netstack
open Ruledb

let rule_bytes = 16
let table_capacity = 4096

type t = {
  clock : Cycles.Clock.t;
  table_addr : int;
  mutable rules : rule array;
  mutable count : int;
  mutable default : action;
}

let create ~clock ?(default = Accept) () =
  {
    clock;
    table_addr = Cycles.Clock.alloc_addr clock ~bytes:(table_capacity * rule_bytes);
    rules = Array.make 16 (rule Accept);
    count = 0;
    default;
  }

let rule_count t = t.count

let add t r =
  if t.count >= table_capacity then invalid_arg "Ruledb.add: table full";
  if t.count = Array.length t.rules then begin
    let bigger = Array.make (2 * Array.length t.rules) r in
    Array.blit t.rules 0 bigger 0 t.count;
    t.rules <- bigger
  end;
  t.rules.(t.count) <- r;
  t.count <- t.count + 1

let remove t i =
  if i < 0 || i >= t.count then invalid_arg "Ruledb.remove: out of range";
  Array.blit t.rules (i + 1) t.rules i (t.count - i - 1);
  t.count <- t.count - 1

let set_default t a = t.default <- a

let prefix_matches ip = function
  | None -> true
  | Some (prefix, bits) ->
    bits = 0
    ||
    let mask = Int32.shift_left (-1l) (32 - bits) in
    Int32.equal (Int32.logand ip mask) (Int32.logand prefix mask)

let range_matches v = function None -> true | Some (lo, hi) -> v >= lo && v <= hi

let proto_matches p = function None -> true | Some q -> p = q

let rule_matches r (f : Flow.t) =
  prefix_matches f.src_ip r.r_src
  && prefix_matches f.dst_ip r.r_dst
  && range_matches f.src_port r.r_src_port
  && range_matches f.dst_port r.r_dst_port
  && proto_matches f.protocol r.r_proto

let classify t flow =
  let rec scan i =
    if i >= t.count then t.default
    else begin
      if i land 3 = 0 then
        Cycles.Clock.touch t.clock
          (t.table_addr + (i * rule_bytes))
          ~bytes:rule_bytes;
      Cycles.Clock.charge t.clock (Alu 3);
      if rule_matches t.rules.(i) flow then begin
        Cycles.Clock.charge t.clock Branch_miss;
        t.rules.(i).r_action
      end
      else scan (i + 1)
    end
  in
  scan 0
