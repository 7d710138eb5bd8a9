"""Walkthrough: sockets with revocable, key-gated access.

Three processes. One owns a sink relay (its mailbox), the other two hold
relays feeding it. Every message travels through this structure, every
connection can be revoked by its owner, and the omniscient checker can
certify the whole state legal at any point.
"""

from relaysim import fig_triangle, is_legal, to_dot


def main():
    world = fig_triangle()
    print("three processes, one shared sink, two feeders")
    print("legal at start:", is_legal(world))

    received = []

    class Inbox:
        def on_tick(self, ctx):
            pass

        def on_message(self, ctx, action, via):
            received.append((action.label, action.params))

    world.processes[1].app = Inbox()

    # process 0 sends an application message through its relay chain
    sender = world.processes[0].store["out"]
    world.ctx(0).send(sender, "greet", ("hello from 0",))
    world.run_until(lambda w: bool(received), 4000)
    print("delivered to the sink process:", received)

    # the sink owner revokes one incoming connection
    door = world.processes[1].store["door"]
    feeder = world.processes[2].store["out"]
    layer2 = world.layer_of(2)
    print("process 2 relay alive before revocation:", not layer2.dead(feeder))
    world.ctx(1).layer.delete_relay(door)
    world.run_until(lambda w: layer2.dead(feeder), 6000)
    print("after the owner deletes its sink, the feeder is torn down:", layer2.dead(feeder))

    print()
    print(to_dot(world))


if __name__ == "__main__":
    main()
