"""Walkthrough: processes leave, the overlay stays connected.

A small random overlay with two tagged leavers. Each leaver hands its
neighbors to each other, waits until nothing depends on it, and stops.
The checker confirms the stayers were weakly connected at every step and
that the end state satisfies all three departure conditions.
"""

from relaysim import build_departure_world, fdp_legitimate, process_components
from relaysim.oracle import stayers_connected


def main():
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    leaving = [1, 3]
    world = build_departure_world(seed=8, n_processes=5, undirected_edges=edges, leaving=leaving)
    initial = process_components(world)
    print("overlay:", edges)
    print("leaving:", leaving, "| staying:", [p for p in range(5) if p not in leaving])

    step = 0
    for step in range(60_000):
        if fdp_legitimate(world, initial):
            break
        assert stayers_connected(world, initial), "stayers split"
        world.step()
    print(f"departure complete after {step} steps, stayers never disconnected")

    world.run_until(lambda w: all(w.layer_of(p) is None for p in leaving), 30_000)
    for pid, proc in sorted(world.processes.items()):
        state = "stopped, layer gone" if not proc.active else "active"
        print(f"  process {pid}: {state}")
    print("final components:", process_components(world))


if __name__ == "__main__":
    main()
