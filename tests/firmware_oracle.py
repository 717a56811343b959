"""Test oracle for the firmware's retiming loop (`repro.ssd.firmware`).

:class:`ProcessFirmware` retimes as the firmware did before its one
loop: each engine's command flow is a generator process on a
:class:`repro.sim.Simulator`. A process wakes at each page's issue
instant, pulls the page through ``serve_input``, shifts its engine's
compute timeline by any input-induced stall and schedules each result
page's program as an event at the instant compute emits it. Background
host reads are a sibling process. A caller's simulator, when given, runs
all of them beside its own processes.

Everything else is the production :class:`~repro.ssd.firmware.Firmware`
(the engine split, the tasks, the SSD-DRAM cap and the report), so
``tests/test_retime_differential.py`` compares the loop with these
processes alone. Only tests use this module.
"""

from repro.sim import Simulator
from repro.ssd import firmware as fw


def issue_ns(task) -> int:
    """When the task's next page's read is issued, rounded to the nearest
    nanosecond as the kernel would round it."""
    k = task.next_k
    return round(max(0.0, (k - fw.EAGER_WINDOW_PAGES) * task.cpp_ns) + task.shift_ns)


def needed_ns(task, k: int) -> float:
    """When the task's compute first needs page ``k``."""
    return k * task.cpp_ns + task.shift_ns


class ProcessFirmware(fw.Firmware):
    """:class:`~repro.ssd.firmware.Firmware` retiming with one process per
    engine and one event per result page."""

    def _run_tasks(self, requests, background=None, serve_input=None, sim=None) -> None:
        if serve_input is None:
            serve_input = self._serve_flash_read
        if sim is None:
            sim = Simulator()
        tasks = [task for request in requests for task in request.tasks]
        for request in requests:
            for task in request.tasks:
                if task.lpas:
                    sim.spawn(
                        self._engine_flow(sim, task, request, serve_input),
                        label=f"engine{task.core_id}",
                    )
        if background is not None and background.lpas:
            # Bound for scheduling background reads: a bit past the compute span.
            nominal_span = max((t.compute_ns for t in tasks), default=0.0) * 1.25
            sim.spawn(self._background_flow(sim, background, nominal_span), label="bg-io")
        sim.run()

    def _engine_flow(self, sim, task, request, serve_input):
        """One engine's command flow: issue, stall-shift, emit results."""
        page = self.config.flash.page_bytes
        write_label = f"engine{task.core_id}.write"
        while task.next_k < len(task.lpas):
            # Always yield, even when the issue instant is the current one:
            # the kernel's insertion-order tie-break then round-robins
            # same-instant issues across engines.
            yield sim.wait_until(issue_ns(task))
            k = task.next_k
            arrival = serve_input(task, k, sim.now)
            needed = needed_ns(task, k)
            if arrival > needed:
                task.shift_ns += arrival - needed
                request.stall_ns += arrival - needed
            # Result pages emerge as compute progresses and share the buses.
            task.pending_out_bytes += page * request.flash_ratio
            while task.pending_out_bytes >= page:
                task.pending_out_bytes -= page
                ready = (k + 1) * task.cpp_ns + task.shift_ns
                sim.schedule_at(
                    ready,
                    lambda sim=sim, task=task: self._flush_result_page(sim, task),
                    label=write_label,
                )
            task.next_k += 1

    def _flush_result_page(self, sim, task) -> None:
        """Program one result page at the current instant."""
        out_ppa = self.ftl.write(next(self._out_lpa))
        record = self.array.service_write(out_ppa, sim.now)
        task.last_write_done_ns = max(task.last_write_done_ns, record.array_done_ns)
        task.out_pages_written += 1

    def _background_flow(self, sim, background, span_ns: float):
        """Conventional host page reads every ``interval_ns`` until ``span_ns``."""
        index = 0
        when = 0.0
        while True:
            yield sim.wait_until(when)
            lpa = background.lpas[index % len(background.lpas)]
            record = self.array.service_read(self.ftl.lookup(lpa), sim.now)
            background.latency.observe(record.done_ns - sim.now)
            when += background.interval_ns
            if when > span_ns:
                return
            index += 1

    def _serve_flash_read(self, task, k: int, when) -> int:
        """Default input source: the flash array through FTL + crossbar."""
        ppa = self.ftl.lookup(task.lpas[k])
        record = self.array.service_read(ppa, when)
        return record.done_ns + self.crossbar.route(task.core_id, ppa.channel)


def use_process_firmware(device):
    """Give ``device`` the process-based firmware in place of its own;
    returns the device."""
    device.firmware = ProcessFirmware(
        device.config, device.array, device.ftl, device.crossbar, device.dram
    )
    return device
