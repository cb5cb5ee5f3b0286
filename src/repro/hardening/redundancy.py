"""N-copy redundancy: replicate, run once per copy, post-step, flag a DUE.

:class:`ReplicaHarness` is the one harness behind TMR
(:mod:`repro.hardening.tmr`, 3 copies, ``@vote``) and DMR
(:mod:`repro.hardening.dmr`, 2 copies, ``@cmp``), which only set its class
attributes. Every allocation/upload is made ``copies`` times (the app sees
copy 0, ``_shadows[addr]`` holds all copies), every launch runs once per
copy, then one ``post_program`` launch per declared output gets
``[*copies, flag, nwords]``. A set :class:`DeviceFlag` (ABFT's too) is the
scheme's DUE at ``finalize``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ExecutionError
from repro.isa import Program
from repro.kernels.base import DeviceHarness
from repro.sim.gpu import GPU, Buffer

#: Threads per CTA of every post-step launch.
POST_BLOCK = 64


class DeviceFlag:
    """Sticky device word, zeroed at first use; check kernels store 1 into
    it and :meth:`check` raises ``error(message)`` if one did."""

    def __init__(self, error: type[ExecutionError], message: str):
        self.error = error
        self.message = message
        self._buf: Buffer | None = None

    def buffer(self, gpu: GPU) -> Buffer:
        if self._buf is None:
            self._buf = gpu.malloc(4)
            gpu.memcpy_htod(self._buf, np.zeros(1, dtype=np.uint32))
        return self._buf

    def check(self, gpu: GPU) -> None:
        if self._buf is not None and gpu.memcpy_dtoh(self._buf, np.uint32)[0]:
            raise self.error(self.message)


class ReplicaHarness(DeviceHarness):
    """Device harness running every launch on ``copies`` copies of the data."""

    copies: int
    post_program: Program
    post_step: str  # launch name suffix: <kernel>@<post_step>
    post_label: str  # names the post-step in the unmanaged-buffer error
    due_error: type[ExecutionError]
    due_message: str

    def __init__(self):
        self._shadows: dict[int, tuple[Buffer, ...]] = {}
        self._flag = DeviceFlag(self.due_error, self.due_message)

    def alloc(self, gpu: GPU, nbytes: int) -> Buffer:
        copies = tuple(gpu.malloc(nbytes) for _ in range(self.copies))
        self._shadows[copies[0].addr] = copies
        return copies[0]

    def upload(self, gpu: GPU, array: np.ndarray) -> Buffer:
        buf = self.alloc(gpu, array.nbytes)
        self.htod(gpu, buf, array)
        return buf

    def htod(self, gpu: GPU, buf: Buffer, array: np.ndarray) -> None:
        for copy in self._shadows.get(buf.addr, (buf,)):
            gpu.memcpy_htod(copy, array)

    def _copy_param(self, param, copy_index: int):
        if isinstance(param, Buffer) and param.addr in self._shadows:
            return self._shadows[param.addr][copy_index]
        return param

    def launch(self, gpu: GPU, program, grid, block, params=(),
               smem_bytes: int = 0, name: str | None = None,
               outputs: tuple[Buffer, ...] = ()) -> None:
        kernel_name = name or program.name
        for copy_index in range(self.copies):
            copy_params = [self._copy_param(p, copy_index) for p in params]
            gpu.launch(program, grid, block, copy_params, smem_bytes,
                       kernel_name)
        flag = self._flag.buffer(gpu)
        for buf in outputs:
            copies = self._shadows.get(buf.addr)
            if copies is None:
                raise ExecutionError(
                    f"{self.post_label} requested on unmanaged buffer "
                    f"0x{buf.addr:x}")
            nwords = buf.nbytes // 4
            gpu.launch(self.post_program, (-(-nwords // POST_BLOCK), 1),
                       (POST_BLOCK, 1), [*copies, flag, nwords], 0,
                       f"{kernel_name}@{self.post_step}")

    def finalize(self, gpu: GPU) -> None:
        """Raise the scheme's DUE if any post-step set the flag."""
        self._flag.check(gpu)
