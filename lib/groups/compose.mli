(* Namespaces of the substrate libraries. *)
open Tacos_collective

(** Lifting per-group schedules back onto the full fabric.

    A send synthesized inside a group speaks local ranks, local link ids and
    local chunk ids; lifting rewrites all three through the group's rank
    array, link map, and a caller-supplied chunk map, and translates it in
    time to the phase's start offset. Because the lifted sends keep their
    relative timing and each global link belongs to exactly one group (or
    one slice) per phase, the lifted parts merged by {!Schedule.merge} stay
    congestion-free and {!Schedule.validate} accepts them chronologically. *)

val lift : (Group.t * (int -> int) * float * Schedule.t) list -> Schedule.t list
(** [lift [(group, chunk_map, offset, schedule); ...]] rewrites every send
    of each local schedule to global NPU ids ([members.(rank)]), global link
    ids ([link_map.(edge)]) and global chunk ids ([chunk_map chunk]),
    shifted by [offset] seconds: each id column is gathered through its
    map, and the rows keep their order. Parts that share one schedule
    (physically) and one offset share its shifted time columns. *)
