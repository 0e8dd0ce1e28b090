"""Interrupt controller: arming, ordering, delivery, masking."""


from repro.arch.interrupts import (
    Interrupt,
    InterruptController,
    InterruptKind,
)


class TestPosting:
    def test_default_armed_kinds(self):
        ctl = InterruptController()
        assert ctl.is_armed(InterruptKind.PIPELINE_COMPLETE)
        assert ctl.is_armed(InterruptKind.CONDITION_TRUE)
        assert not ctl.is_armed(InterruptKind.FP_OVERFLOW)

    def test_unarmed_interrupts_dropped(self):
        ctl = InterruptController()
        assert ctl.post(InterruptKind.FP_OVERFLOW, cycle=10) is None
        assert len(ctl.dropped) == 1
        assert ctl.pending() == 0

    def test_arming_enables_delivery(self):
        ctl = InterruptController()
        ctl.arm(InterruptKind.FP_OVERFLOW)
        assert ctl.post(InterruptKind.FP_OVERFLOW, cycle=10) is not None
        assert ctl.pending() == 1

    def test_disarm(self):
        ctl = InterruptController()
        ctl.disarm(InterruptKind.PIPELINE_COMPLETE)
        assert ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=0) is None

    def test_latency_applied(self):
        ctl = InterruptController(latency_cycles=4)
        irq = ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=10)
        assert irq is not None and irq.cycle == 14


class TestDelivery:
    def test_delivery_in_cycle_order(self):
        ctl = InterruptController()
        ctl.post(InterruptKind.CONDITION_TRUE, cycle=20)
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=10)
        delivered = ctl.deliver_until(100)
        assert [i.cycle for i in delivered] == [10, 20]

    def test_deliver_until_respects_cycle(self):
        ctl = InterruptController()
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=10)
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=50)
        assert len(ctl.deliver_until(20)) == 1
        assert ctl.pending() == 1

    def test_handlers_invoked(self):
        ctl = InterruptController()
        seen = []
        ctl.on(InterruptKind.PIPELINE_COMPLETE, lambda irq: seen.append(irq.source))
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=1, source="pipe0")
        ctl.deliver_until(10)
        assert seen == ["pipe0"]

    def test_drain_delivers_everything(self):
        ctl = InterruptController()
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=1_000_000)
        assert len(ctl.drain()) == 1
        assert ctl.pending() == 0

    def test_payload_carried(self):
        ctl = InterruptController()
        ctl.post(InterruptKind.CONDITION_TRUE, cycle=0, payload=0.125)
        irq = ctl.deliver_until(10)[0]
        assert irq.payload == 0.125

    def test_next_pending_peeks(self):
        ctl = InterruptController()
        assert ctl.next_pending() is None
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=5)
        nxt = ctl.next_pending()
        assert nxt is not None and nxt.cycle == 5
        assert ctl.pending() == 1  # peek does not consume

    def test_reset(self):
        ctl = InterruptController()
        ctl.post(InterruptKind.PIPELINE_COMPLETE, cycle=5)
        ctl.deliver_until(10)
        ctl.reset()
        assert ctl.pending() == 0
        assert ctl.delivered == []
