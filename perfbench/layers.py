"""Which program calls the traced run times, and the per-layer metrics.

Layers are the program's modules.  :func:`instrument` wraps the public
calls named below; :func:`layer_metrics` turns the recorded spans into the
``per_layer`` metrics of ``BENCHMARK.json``.  Times are self times unless
the metric says otherwise, and normalised per traced call of the workload
(one ``InferenceSession.forward`` call in the bulk workloads, one served
request in ``online_short``) so they compare across runs.  Layers a
workload does not run in the benchmark's process report 0: the serving
workers of ``online_short`` run the model, the parent only schedules and
transports.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from .tracing import SpanTotals, Tracer

#: Span names whose inclusive time makes up each Table-5 category.  MatMul
#: is the linear layers' inclusive time (GEMM, quantise, dequant) plus the
#: attention self time (score/context matmuls); everything left inside
#: ``models.forward`` is ``unaccounted``.
TABLE5 = {
    "matmul": ("layers.linear",),
    "softmax": ("nonlinear.softmax",),
    "gelu": ("nonlinear.gelu",),
    "layernorm": ("nonlinear.layernorm",),
    "etc": ("kernels.epilogue", "models.embedding"),
}
#: ``repro.hardware`` category name for each Table-5 share above.
MODEL_CATEGORY = {
    "matmul": "MatMul",
    "softmax": "Softmax",
    "gelu": "GELU",
    "layernorm": "LayerNorm",
    "etc": "etc.",
}


def _elements(position: int):
    """Work counter: elements of the tensor at ``args[position]``."""
    def work(args, kwargs, result) -> Dict[str, float]:
        return {"elements": float(np.size(args[position]))}
    return work


def _gemm_work(args, kwargs, result) -> Dict[str, float]:
    """FLOP and bytes of ``x @ W`` from the operand shapes (``(self, x, operand, ...)``)."""
    x, operand = np.asarray(args[1]), args[2]
    if isinstance(operand, np.ndarray):
        k, n = operand.shape
        w_bytes = operand.nbytes
    else:  # the native kernel's packed int8 weight
        k, n = operand.k, operand.n
        w_bytes = k * n
    m = x.size // k if k else 0
    out = np.asarray(result)
    return {
        "flop": 2.0 * m * k * n,
        "bytes": float(x.nbytes + w_bytes + out.nbytes),
    }


def _plan_work(args, kwargs, result) -> Dict[str, float]:
    """Batches and rows of one ``RequestBatcher.plan`` layout."""
    return {"batches": float(len(result)), "rows": float(len(args[1]))}


def _payload_bytes(payload) -> float:
    if isinstance(payload, np.ndarray):
        return float(payload.nbytes)
    if isinstance(payload, (list, tuple)):
        return float(sum(_payload_bytes(item) for item in payload))
    return 0.0


def _send_work(args, kwargs, result) -> Dict[str, float]:
    """Bytes of one request payload (``send(self, op, payload)``)."""
    return {"bytes": _payload_bytes(args[2])}


def _recv_work(args, kwargs, result) -> Dict[str, float]:
    """Bytes of one ``(status, value)`` response."""
    return {"bytes": _payload_bytes(result[1])}


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every traced layer (see the module docstring)."""
    from repro.api import batching, server, session, sharding, transport
    from repro.core import kernels
    from repro.transformer import attention, layers, models, nonlinear_backend

    for kernel in (kernels.NumpyKernel, kernels.NativeKernel):
        tracer.wrap(kernel, "matmul_fp32", "kernels.gemm_fp32", work=_gemm_work)
        tracer.wrap(kernel, "linear_int8", "kernels.linear_int8", work=_gemm_work)
        tracer.wrap(kernel, "quantize_scale", "kernels.quantize")
        tracer.wrap(kernel, "quantize_pack", "kernels.quantize")
        for epilogue in ("bias_residual", "bias_relu", "affine"):
            tracer.wrap(kernel, epilogue, "kernels.epilogue")
        # The fused LUT epilogues are the non-linear operators' fast path.
        # ``(self, op, x, ...)``: the tensor is the third argument.
        tracer.wrap(kernel, "lut_gelu_bias", "nonlinear.gelu", work=_elements(2))
        tracer.wrap(kernel, "lut_layernorm", "nonlinear.layernorm", work=_elements(2))
    tracer.wrap(kernels.NativeKernel, "gemm_int8", "kernels.gemm_int8")

    tracer.wrap(layers.Linear, "__call__", "layers.linear")
    tracer.wrap(layers.Linear, "call_prebias", "layers.linear")
    tracer.wrap(layers.Embedding, "__call__", "models.embedding")
    for method in ("__call__", "forward_prebias"):
        tracer.wrap(attention.MultiHeadSelfAttention, method, "attention")
    backend = nonlinear_backend.NonlinearBackend
    for op in ("gelu", "softmax", "layernorm"):
        tracer.wrap(backend, f"apply_{op}", f"nonlinear.{op}", work=_elements(1))
    tracer.wrap(models.EncoderModel, "forward", "models.forward")

    tracer.wrap(session.InferenceSession, "forward", "session.forward")
    tracer.wrap(batching.RequestBatcher, "plan", "batching.plan", work=_plan_work)

    # Serving, parent side: admission, the dispatch to a worker and the
    # transport under it.  A dispatch's self time is the wait on the worker.
    tracer.wrap(server.ServingQueue, "submit", "admission.submit")
    for method in ("forward", "forward_deadline"):
        tracer.wrap(sharding._ShardClient, method, "sharding.dispatch", batch=True)
    tracer.wrap(transport.ShmRingTransport, "send", "transport.send", work=_send_work)
    tracer.wrap(transport.ShmRingTransport, "recv", "transport.recv", work=_recv_work)


def _ms(ns: float) -> float:
    return ns / 1e6


def table5_shares(totals: Mapping[str, SpanTotals]) -> Dict[str, float]:
    """Measured Table-5 shares of ``models.forward`` time (0 when it never ran)."""
    forward = totals.get("models.forward")
    total_ns = forward.inclusive_ns if forward else 0
    shares = {}
    for category, names in TABLE5.items():
        ns = sum(totals[name].inclusive_ns for name in names if name in totals)
        if category == "matmul" and "attention" in totals:
            ns += totals["attention"].self_ns
        shares[category] = ns / total_ns if total_ns else 0.0
    shares["unaccounted"] = 1.0 - sum(shares.values()) if total_ns else 0.0
    return shares


def modelled_shares(sequence_length: int) -> Dict[str, float]:
    """``repro.hardware``'s modelled NN-LUT Table-5 shares for BERT-base at ``L``."""
    from repro.hardware.performance import run_system_comparison

    point = run_system_comparison(sequence_lengths=(sequence_length,)).points[0]
    relative = point.nn_lut.relative()
    return {
        category: relative.get(name, 0.0) / 100.0
        for category, name in MODEL_CATEGORY.items()
    }


def _per_call_us(entry: SpanTotals) -> float:
    return entry.inclusive_ns / 1e3 / entry.calls if entry.calls else 0.0


def layer_metrics(totals: Mapping[str, SpanTotals], calls: int) -> Dict[str, float]:
    """Span-derived per-layer metrics; times and work are per traced call."""
    def get(name: str) -> SpanTotals:
        return totals.get(name) or SpanTotals()

    per = max(1, calls)
    linear_int8 = get("kernels.linear_int8")
    gemm_int8 = get("kernels.gemm_int8")
    if gemm_int8.calls:
        # Native: the GEMM is its own call; quantise/pack and the dequant
        # epilogue are what remains of linear_int8.
        int8_gemm_ns, int8_quant_ns = gemm_int8.inclusive_ns, linear_int8.self_ns
    else:
        # Numpy: one fused call, reported as GEMM.
        int8_gemm_ns, int8_quant_ns = linear_int8.self_ns, 0
    fp32 = get("kernels.gemm_fp32")
    gemm_ns = fp32.inclusive_ns + int8_gemm_ns
    flop = fp32.work_sum("flop") + linear_int8.work_sum("flop")
    gemm_bytes = fp32.work_sum("bytes") + linear_int8.work_sum("bytes")
    plan = get("batching.plan")
    lut_elements = sum(
        get(name).work_sum("elements")
        for name in ("nonlinear.gelu", "nonlinear.softmax", "nonlinear.layernorm")
    )
    linear = get("layers.linear")
    dispatch = get("sharding.dispatch")
    send, recv = get("transport.send"), get("transport.recv")
    values: Dict[str, float] = {
        "kernels.gemm_fp32_ms": _ms(fp32.inclusive_ns) / per,
        "kernels.gemm_int8_ms": _ms(int8_gemm_ns) / per,
        "kernels.quantize_ms": _ms(int8_quant_ns + get("kernels.quantize").inclusive_ns) / per,
        "kernels.epilogue_ms": _ms(get("kernels.epilogue").inclusive_ns) / per,
        "kernels.gemm_gflop": flop / 1e9 / per,
        "kernels.gemm_gflops": flop / gemm_ns if gemm_ns else 0.0,  # flop per ns
        "kernels.gemm_mbytes": gemm_bytes / 1e6 / per,
        "layers.linear_calls": linear.calls / per,
        "layers.linear_self_ms": _ms(linear.self_ns) / per,
        "attention.self_ms": _ms(get("attention").self_ns) / per,
        "nonlinear.gelu_ms": _ms(get("nonlinear.gelu").inclusive_ns) / per,
        "nonlinear.softmax_ms": _ms(get("nonlinear.softmax").inclusive_ns) / per,
        "nonlinear.layernorm_ms": _ms(get("nonlinear.layernorm").inclusive_ns) / per,
        "nonlinear.lut_melements": lut_elements / 1e6 / per,
        "models.forward_ms": _ms(get("models.forward").inclusive_ns) / per,
        "models.embedding_ms": _ms(get("models.embedding").inclusive_ns) / per,
        "session.busy_ms": _ms(get("session.forward").inclusive_ns) / per,
        "batching.batches": plan.work_sum("batches") / per,
        "batching.rows_per_batch": (
            plan.work_sum("rows") / plan.work_sum("batches") if plan.calls else 0.0
        ),
        "admission.submit_us": _per_call_us(get("admission.submit")),
        "transport.send_us": _per_call_us(send),
        "transport.recv_us": _per_call_us(recv),
        "transport.wait_ms": _ms(dispatch.self_ns) / dispatch.calls if dispatch.calls else 0.0,
        "transport.mbytes": (send.work_sum("bytes") + recv.work_sum("bytes")) / 1e6 / per,
        "sharding.dispatch_ms": _per_call_us(dispatch) / 1e3,
    }
    for category, share in table5_shares(totals).items():
        values[f"table5.{category}_share"] = share
    return values
