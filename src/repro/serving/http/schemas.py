"""Wire schemas of the HTTP gateway: strict JSON forms of the typed API.

The gateway speaks JSON whose shapes mirror the unified prediction API
one-to-one — :class:`~repro.api.PredictionRequest` and
:class:`~repro.api.PredictionResult` round-trip losslessly, including the
cache / feature-cache provenance flags and ``model_version``, so a remote
caller sees exactly what an in-process caller sees.  Query plans travel as
explicit operator trees (:func:`plan_to_wire` / :func:`plan_from_wire`)
rather than being re-planned server-side: the featurizer reads cardinalities
off the plan, so shipping the tree verbatim is what makes a gateway answer
bit-identical to an in-process answer.

Validation is *strict*: unknown fields are rejected, required fields must be
present, and every leaf value is type-checked.  All validation failures
raise :class:`~repro.exceptions.RequestValidationError` (wire code
``invalid_request``, HTTP 400); the error mapper at the bottom of this
module converts any :class:`~repro.exceptions.ReproError` into its stable
``(HTTP status, error body)`` pair and back — see ``docs/GATEWAY.md`` for
the full code table.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

from repro.api import CachePolicy, PredictionRequest, PredictionResult
from repro.core.workload import Workload
from repro.dbms.plan.operators import OperatorType, PlanNode
from repro.dbms.query_log import QueryRecord
from repro.exceptions import (
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    RequestValidationError,
    ServingError,
    UnknownModelError,
)

__all__ = [
    "plan_to_wire",
    "plan_from_wire",
    "record_to_wire",
    "record_from_wire",
    "workload_to_wire",
    "workload_from_wire",
    "request_to_wire",
    "ParsedPredictionRequest",
    "request_from_wire",
    "batch_request_from_wire",
    "result_to_wire",
    "result_from_wire",
    "GatewayHttpError",
    "STATUS_BY_CODE",
    "status_for_exception",
    "error_to_wire",
    "error_from_wire",
]

#: Deepest plan tree the wire format accepts; real planner output is far
#: shallower, so this only bounds hostile payloads.
MAX_PLAN_DEPTH = 128


# -- validation primitives -------------------------------------------------------------


def _require_object(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise RequestValidationError(
            f"{where} must be a JSON object, got {type(value).__name__}"
        )
    return value


def _require_array(value: Any, where: str) -> Sequence[Any]:
    if not isinstance(value, Sequence) or isinstance(value, (str, bytes)):
        raise RequestValidationError(
            f"{where} must be a JSON array, got {type(value).__name__}"
        )
    return value


def _check_fields(
    payload: Mapping[str, Any],
    where: str,
    *,
    required: frozenset[str],
    optional: frozenset[str],
) -> None:
    unknown = sorted(set(payload) - required - optional)
    if unknown:
        raise RequestValidationError(
            f"{where} carries unknown field(s) {unknown}; "
            f"allowed: {sorted(required | optional)}"
        )
    missing = sorted(required - set(payload))
    if missing:
        raise RequestValidationError(f"{where} is missing required field(s) {missing}")


def _wire_float(value: Any, where: str) -> float:
    # bool is an int subclass; JSON true/false must not pass as numbers.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise RequestValidationError(
            f"{where} must be a number, got {type(value).__name__}"
        )
    return float(value)


def _wire_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestValidationError(
            f"{where} must be an integer, got {type(value).__name__}"
        )
    return int(value)


def _wire_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise RequestValidationError(
            f"{where} must be a string, got {type(value).__name__}"
        )
    return value


def _wire_bool(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise RequestValidationError(
            f"{where} must be a boolean, got {type(value).__name__}"
        )
    return value


# -- plan trees ------------------------------------------------------------------------

_PLAN_REQUIRED = frozenset({"op"})
_PLAN_OPTIONAL = frozenset(
    {
        "est_input_cardinality",
        "est_cardinality",
        "true_input_cardinality",
        "true_cardinality",
        "row_width",
        "table",
        "detail",
        "children",
    }
)


def plan_to_wire(plan: PlanNode) -> dict[str, Any]:
    """One plan operator subtree as a JSON-friendly dict (recursive)."""
    payload: dict[str, Any] = {
        "op": plan.op_type.value,
        "est_input_cardinality": plan.est_input_cardinality,
        "est_cardinality": plan.est_cardinality,
        "true_input_cardinality": plan.true_input_cardinality,
        "true_cardinality": plan.true_cardinality,
        "row_width": plan.row_width,
        "detail": plan.detail,
        "children": [plan_to_wire(child) for child in plan.children],
    }
    if plan.table is not None:
        payload["table"] = plan.table
    return payload


def plan_from_wire(payload: Any, where: str = "plan", *, _depth: int = 0) -> PlanNode:
    """Parse one wire plan tree back into a :class:`PlanNode` (strict)."""
    if _depth > MAX_PLAN_DEPTH:
        raise RequestValidationError(
            f"{where} exceeds the maximum plan depth of {MAX_PLAN_DEPTH}"
        )
    data = _require_object(payload, where)
    _check_fields(data, where, required=_PLAN_REQUIRED, optional=_PLAN_OPTIONAL)
    op_name = _wire_str(data["op"], f"{where}.op")
    try:
        op_type = OperatorType(op_name)
    except ValueError as exc:
        raise RequestValidationError(
            f"{where}.op: unknown operator {op_name!r}; "
            f"known: {[op.value for op in OperatorType]}"
        ) from exc
    table = data.get("table")
    if table is not None:
        table = _wire_str(table, f"{where}.table")
    children = tuple(
        plan_from_wire(child, f"{where}.children[{index}]", _depth=_depth + 1)
        for index, child in enumerate(_require_array(data.get("children", []), f"{where}.children"))
    )
    return PlanNode(
        op_type=op_type,
        est_input_cardinality=_wire_float(
            data.get("est_input_cardinality", 0.0), f"{where}.est_input_cardinality"
        ),
        est_cardinality=_wire_float(
            data.get("est_cardinality", 0.0), f"{where}.est_cardinality"
        ),
        true_input_cardinality=_wire_float(
            data.get("true_input_cardinality", 0.0), f"{where}.true_input_cardinality"
        ),
        true_cardinality=_wire_float(
            data.get("true_cardinality", 0.0), f"{where}.true_cardinality"
        ),
        row_width=_wire_int(data.get("row_width", 8), f"{where}.row_width"),
        table=table,
        detail=_wire_str(data.get("detail", ""), f"{where}.detail"),
        children=children,
    )


# -- query records and workloads -------------------------------------------------------

_RECORD_REQUIRED = frozenset({"sql", "plan", "actual_memory_mb", "optimizer_estimate_mb"})
_RECORD_OPTIONAL = frozenset({"benchmark", "template_seed"})


def record_to_wire(record: QueryRecord) -> dict[str, Any]:
    """One query-log record as a JSON-friendly dict (plan tree included)."""
    return {
        "sql": record.sql,
        "plan": plan_to_wire(record.plan),
        "actual_memory_mb": record.actual_memory_mb,
        "optimizer_estimate_mb": record.optimizer_estimate_mb,
        "benchmark": record.benchmark,
        "template_seed": record.template_seed,
    }


def record_from_wire(payload: Any, where: str = "query") -> QueryRecord:
    """Parse one wire query record (strict)."""
    data = _require_object(payload, where)
    _check_fields(data, where, required=_RECORD_REQUIRED, optional=_RECORD_OPTIONAL)
    return QueryRecord(
        sql=_wire_str(data["sql"], f"{where}.sql"),
        plan=plan_from_wire(data["plan"], f"{where}.plan"),
        actual_memory_mb=_wire_float(data["actual_memory_mb"], f"{where}.actual_memory_mb"),
        optimizer_estimate_mb=_wire_float(
            data["optimizer_estimate_mb"], f"{where}.optimizer_estimate_mb"
        ),
        benchmark=_wire_str(data.get("benchmark", ""), f"{where}.benchmark"),
        template_seed=_wire_int(data.get("template_seed", -1), f"{where}.template_seed"),
    )


_WORKLOAD_REQUIRED = frozenset({"queries"})
_WORKLOAD_OPTIONAL = frozenset({"actual_memory_mb"})


def workload_to_wire(workload: Workload) -> dict[str, Any]:
    """One workload as a JSON-friendly dict."""
    payload: dict[str, Any] = {
        "queries": [record_to_wire(record) for record in workload.queries],
    }
    if workload.actual_memory_mb is not None:
        payload["actual_memory_mb"] = workload.actual_memory_mb
    return payload


def workload_from_wire(payload: Any, where: str = "workload") -> Workload:
    """Parse one wire workload (strict; must carry at least one query)."""
    data = _require_object(payload, where)
    _check_fields(data, where, required=_WORKLOAD_REQUIRED, optional=_WORKLOAD_OPTIONAL)
    queries = [
        record_from_wire(record, f"{where}.queries[{index}]")
        for index, record in enumerate(_require_array(data["queries"], f"{where}.queries"))
    ]
    if not queries:
        raise RequestValidationError(f"{where}.queries must not be empty")
    actual = data.get("actual_memory_mb")
    if actual is not None:
        actual = _wire_float(actual, f"{where}.actual_memory_mb")
    return Workload(queries=queries, actual_memory_mb=actual)


# -- prediction requests ---------------------------------------------------------------

_REQUEST_REQUIRED = frozenset({"workload"})
_REQUEST_OPTIONAL = frozenset(
    {"request_id", "deadline_ms", "cache_policy", "tenant", "priority"}
)


def request_to_wire(request: PredictionRequest) -> dict[str, Any]:
    """One typed prediction request as its wire body.

    ``deadline_s`` travels as ``deadline_ms`` (the wire unit matches the
    ``X-Deadline-Ms`` header); the server restarts the budget clock at
    header parse, so in-transit time is charged against the caller's wait,
    not the server's budget.
    """
    payload: dict[str, Any] = {
        "workload": workload_to_wire(request.workload),
        "request_id": request.request_id,
        "cache_policy": request.cache_policy.value,
    }
    if request.deadline_s is not None:
        payload["deadline_ms"] = 1e3 * request.deadline_s
    if request.tenant is not None:
        payload["tenant"] = request.tenant
    if request.priority != 0:
        payload["priority"] = request.priority
    return payload


class ParsedPredictionRequest:
    """A validated wire prediction request, before deadline-clock binding.

    The wire form carries ``deadline_ms`` as a *duration*; the absolute
    expiry depends on when the gateway's clock for this request started
    (header parse).  The route handler therefore receives this intermediate
    object and calls :meth:`bind` with the effective absolute deadline to
    obtain the final :class:`~repro.api.PredictionRequest`.
    """

    __slots__ = ("workload", "request_id", "deadline_ms", "cache_policy", "tenant", "priority")

    def __init__(
        self,
        workload: Workload,
        request_id: str | None,
        deadline_ms: float | None,
        cache_policy: CachePolicy,
        tenant: str | None = None,
        priority: int = 0,
    ) -> None:
        self.workload = workload
        self.request_id = request_id
        self.deadline_ms = deadline_ms
        self.cache_policy = cache_policy
        self.tenant = tenant
        self.priority = priority

    def bind(self, deadline_s: float | None) -> PredictionRequest:
        """The final typed request with the remaining budget attached."""
        return PredictionRequest.of(
            self.workload,
            request_id=self.request_id,
            deadline_s=deadline_s,
            cache_policy=self.cache_policy,
            tenant=self.tenant,
            priority=self.priority,
        )


def request_from_wire(payload: Any, where: str = "request") -> ParsedPredictionRequest:
    """Parse one wire prediction request (strict)."""
    data = _require_object(payload, where)
    _check_fields(data, where, required=_REQUEST_REQUIRED, optional=_REQUEST_OPTIONAL)
    request_id = data.get("request_id")
    if request_id is not None:
        request_id = _wire_str(request_id, f"{where}.request_id")
        if not request_id:
            raise RequestValidationError(f"{where}.request_id must not be empty")
    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = _wire_float(deadline_ms, f"{where}.deadline_ms")
        if deadline_ms != deadline_ms or deadline_ms in (float("inf"), float("-inf")):
            raise RequestValidationError(f"{where}.deadline_ms must be finite")
    policy_name = data.get("cache_policy", CachePolicy.DEFAULT.value)
    policy_name = _wire_str(policy_name, f"{where}.cache_policy")
    try:
        cache_policy = CachePolicy(policy_name)
    except ValueError as exc:
        raise RequestValidationError(
            f"{where}.cache_policy: unknown policy {policy_name!r}; "
            f"known: {[policy.value for policy in CachePolicy]}"
        ) from exc
    tenant = data.get("tenant")
    if tenant is not None:
        tenant = _wire_str(tenant, f"{where}.tenant")
        if not tenant:
            raise RequestValidationError(f"{where}.tenant must not be empty")
    priority = _wire_int(data.get("priority", 0), f"{where}.priority")
    return ParsedPredictionRequest(
        workload=workload_from_wire(data["workload"], f"{where}.workload"),
        request_id=request_id,
        deadline_ms=deadline_ms,
        cache_policy=cache_policy,
        tenant=tenant,
        priority=priority,
    )


_BATCH_REQUIRED = frozenset({"requests"})

#: Requests accepted in one ``/v1/predict_batch`` body.
MAX_BATCH_REQUESTS = 1024


def batch_request_from_wire(payload: Any) -> list[ParsedPredictionRequest]:
    """Parse a ``/v1/predict_batch`` body: ``{"requests": [request, ...]}``."""
    data = _require_object(payload, "body")
    _check_fields(data, "body", required=_BATCH_REQUIRED, optional=frozenset())
    entries = _require_array(data["requests"], "body.requests")
    if not entries:
        raise RequestValidationError("body.requests must not be empty")
    if len(entries) > MAX_BATCH_REQUESTS:
        raise RequestValidationError(
            f"body.requests holds {len(entries)} requests; "
            f"the maximum per call is {MAX_BATCH_REQUESTS}"
        )
    return [
        request_from_wire(entry, f"body.requests[{index}]")
        for index, entry in enumerate(entries)
    ]


# -- prediction results ----------------------------------------------------------------

_RESULT_REQUIRED = frozenset({"memory_mb", "request_id"})
_RESULT_OPTIONAL = frozenset(
    {"model_name", "model_version", "latency_s", "cache_hit", "feature_cache_active"}
)


def result_to_wire(result: PredictionResult) -> dict[str, Any]:
    """One typed prediction result as its wire body (all provenance kept)."""
    return {
        "memory_mb": result.memory_mb,
        "request_id": result.request_id,
        "model_name": result.model_name,
        "model_version": result.model_version,
        "latency_s": result.latency_s,
        "cache_hit": result.cache_hit,
        "feature_cache_active": result.feature_cache_active,
    }


def result_from_wire(payload: Any, where: str = "result") -> PredictionResult:
    """Parse one wire prediction result (strict; the client side of the pair)."""
    data = _require_object(payload, where)
    _check_fields(data, where, required=_RESULT_REQUIRED, optional=_RESULT_OPTIONAL)
    model_name = data.get("model_name")
    if model_name is not None:
        model_name = _wire_str(model_name, f"{where}.model_name")
    model_version = data.get("model_version")
    if model_version is not None:
        model_version = _wire_int(model_version, f"{where}.model_version")
    return PredictionResult(
        memory_mb=_wire_float(data["memory_mb"], f"{where}.memory_mb"),
        request_id=_wire_str(data["request_id"], f"{where}.request_id"),
        model_name=model_name,
        model_version=model_version,
        latency_s=_wire_float(data.get("latency_s", 0.0), f"{where}.latency_s"),
        cache_hit=_wire_bool(data.get("cache_hit", False), f"{where}.cache_hit"),
        feature_cache_active=_wire_bool(
            data.get("feature_cache_active", False), f"{where}.feature_cache_active"
        ),
    )


# -- error mapping ---------------------------------------------------------------------


class GatewayHttpError(ServingError):
    """A transport-level gateway failure with an explicit wire code + status.

    Used for conditions that exist only at the HTTP layer — unknown route,
    wrong method, oversized body, malformed framing — where no library
    exception carries the right code.  ``code``/``status`` are instance
    attributes, overriding the class-level ``code`` of
    :class:`~repro.exceptions.ServingError`.
    """

    def __init__(self, message: str, *, code: str, status: int) -> None:
        super().__init__(message)
        self.code = code
        self.status = status


#: Stable wire code -> HTTP status.  The serving-tier exception rows mirror
#: the table in :mod:`repro.exceptions`; the transport-only rows are raised
#: via :class:`GatewayHttpError`.
STATUS_BY_CODE: dict[str, int] = {
    "invalid_request": 400,
    "unauthorized": 401,
    "not_found": 404,
    "unknown_model": 404,
    "method_not_allowed": 405,
    "payload_too_large": 413,
    "internal": 500,
    "serving_error": 500,
    "overloaded": 503,
    "deadline_exceeded": 504,
}

#: Wire code -> exception class the client re-raises.  Codes not listed
#: (including transport-only ones) surface as plain ServingError.
_EXCEPTION_BY_CODE: dict[str, type[ServingError]] = {
    "deadline_exceeded": DeadlineExceededError,
    "invalid_request": RequestValidationError,
    "overloaded": OverloadedError,
    "unknown_model": UnknownModelError,
}


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status an exception maps to (500 for anything unknown)."""
    status = getattr(exc, "status", None)
    if isinstance(status, int):
        return status
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code in STATUS_BY_CODE:
        return STATUS_BY_CODE[code]
    return 500


def error_to_wire(exc: BaseException, request_id: str | None = None) -> dict[str, Any]:
    """The machine-readable error body for an exception.

    Non-:class:`~repro.exceptions.ReproError` exceptions are reported as
    code ``internal`` without their message (no detail leakage for
    programming errors); library errors carry their message verbatim.
    """
    if isinstance(exc, ReproError):
        code = exc.code
        message = str(exc) or exc.code
    else:
        code = "internal"
        message = "internal server error"
    body: dict[str, Any] = {"error": {"code": code, "message": message}}
    if request_id:
        body["request_id"] = request_id
    return body


def error_from_wire(payload: Any, status: int) -> ServingError:
    """Rebuild the exception a wire error body describes (client side).

    Unknown or missing codes degrade to a plain
    :class:`~repro.exceptions.ServingError` carrying the HTTP status in its
    message, so a client never crashes on a foreign error shape.
    """
    code = ""
    message = f"gateway answered HTTP {status}"
    if isinstance(payload, Mapping):
        error = payload.get("error")
        if isinstance(error, Mapping):
            raw_code = error.get("code")
            if isinstance(raw_code, str):
                code = raw_code
            raw_message = error.get("message")
            if isinstance(raw_message, str) and raw_message:
                message = raw_message
    exc_class = _EXCEPTION_BY_CODE.get(code, ServingError)
    return exc_class(f"{message} [http {status}, code {code or 'unknown'}]")
