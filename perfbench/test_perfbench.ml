(* Self-tests of the benchmark's own machinery: the allocation counter
   must see allocation, and the generators must be pure in the seed. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

(* 1000 conses are 3000 words (header + two fields each).  The counter the
   benchmark reports must see them; a sampled counter that only moves on a
   minor collection reads 0 here. *)
let counter_sees_a_cons_loop () =
  let w0 = Perfbench.Alloc.minor_words () in
  let l = ref [] in
  for i = 1 to 1000 do
    l := Sys.opaque_identity (i :: !l)
  done;
  let words = Perfbench.Alloc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !l);
  check (Printf.sprintf "1000-cons loop reads %.0f >= 3000 minor words" words) (words >= 3000.0)

let generators_are_pure () =
  List.iter
    (fun name ->
      let lines seed =
        match Perfbench.Workload.make name ~seed with
        | None -> []
        | Some w ->
            w.Perfbench.Workload.warmup.Perfbench.Workload.line
            :: List.init 3 (fun k -> (w.Perfbench.Workload.request k).Perfbench.Workload.line)
      in
      let a = lines 7 and b = lines 7 and c = lines 8 in
      check (name ^ ": same seed, same requests") (a <> [] && a = b);
      check (name ^ ": another seed, other requests") (a <> c);
      check (name ^ ": requests are distinct") (List.length (List.sort_uniq compare a) = List.length a);
      check (name ^ ": every request decodes")
        (List.for_all (fun l -> Result.is_ok (Service.Protocol.job_of_line l)) a))
    Perfbench.Workload.names

(* The size ladder is what the per-gate time ratio compares. *)
let map_scale_follows_the_ladder () =
  match Perfbench.Workload.make "map-scale" ~seed:3 with
  | None -> check "map-scale exists" false
  | Some w ->
      let gates = List.init 4 (fun k -> (w.Perfbench.Workload.request k).Perfbench.Workload.gates) in
      check
        (Printf.sprintf "map-scale gate counts %s = 1000/2000/4000/8000"
           (String.concat "/" (List.map string_of_int gates)))
        (gates = [ 1000; 2000; 4000; 8000 ])

let () =
  counter_sees_a_cons_loop ();
  map_scale_follows_the_ladder ();
  generators_are_pure ();
  if !failures > 0 then exit 1
