type ('s, 'm) step = {
  time : int;
  event : ('s, 'm) Trace.event;
  states : 's array;
}

type ('s, 'm) sink = ('s, 'm) step -> unit
