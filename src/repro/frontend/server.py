"""The frontend itself: validation, tokenization, dispatch, response shaping.

:class:`PrefillOnlyFrontend` is the in-process equivalent of the paper's HTTP
server: it parses an OpenAI-style payload, tokenizes the prompt, pushes a
:class:`~repro.frontend.rpc.SubmitRequest` across the RPC boundary, lets a
scoring backend produce the constrained-output probabilities, and wraps the
result into an OpenAI-shaped :class:`~repro.frontend.api.CompletionResponse`.

Two kinds of backend serve it:

* :class:`MicroModelBackend` — scores with the NumPy micro-transformer using
  hybrid prefilling and a per-user prefix cache of hidden-state prefixes at
  block granularity, so repeated prompts from the same user report cache hits
  exactly as the full engine would (functional path);
* any object implementing :class:`ScoringBackend` — e.g. a test double, or an
  adapter that forwards to a real engine.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass

from repro.frontend.api import (
    CompletionChoice,
    CompletionRequest,
    CompletionResponse,
    TokenProbability,
    UsageInfo,
    parse_completion_request,
)
from repro.frontend.rpc import InProcessChannel, ScoreReply, SubmitRequest
from repro.execution.chunked_linear import ChunkedExecutionOptions
from repro.execution.numeric import MicroTransformer, MicroTransformerConfig
from repro.workloads.tokenizer import SyntheticTokenizer


class ScoringBackend(abc.ABC):
    """Turns a tokenized submit message into constrained-output scores."""

    @abc.abstractmethod
    def score(self, request: SubmitRequest) -> ScoreReply:
        """Score one request (must preserve ``request_id``)."""


@dataclass
class _CachedPrefix:
    """Per-user record of the longest previously seen token prefix."""

    token_ids: tuple[int, ...]


class MicroModelBackend(ScoringBackend):
    """Scores requests with the NumPy micro-transformer via hybrid prefilling.

    The backend keeps, per user, the token ids of the longest prompt seen so
    far and reports the block-aligned shared prefix of each new request as
    ``cached_prompt_tokens`` — the same accounting the engine's prefix cache
    performs, so applications can observe cache behaviour through the API.
    """

    def __init__(self, *, seed: int = 0, block_size: int = 64,
                 config: MicroTransformerConfig | None = None,
                 chunk_tokens: int = 128) -> None:
        self._model = MicroTransformer(config or MicroTransformerConfig(), seed=seed)
        self._tokenizer_vocab = self._model.config.vocab_size
        self._block_size = block_size
        self._chunk_tokens = chunk_tokens
        self._prefixes: dict[str, _CachedPrefix] = {}

    def _output_token_id(self, output: str) -> int:
        # Deterministically map an output string (e.g. "Yes") to a token id.
        value = 0
        for byte in output.encode("utf-8"):
            value = (value * 131 + byte) % self._tokenizer_vocab
        return value

    def _shared_prefix_tokens(self, user_id: str, token_ids: tuple[int, ...]) -> int:
        record = self._prefixes.get(user_id)
        if record is None:
            return 0
        shared = 0
        for mine, theirs in zip(token_ids, record.token_ids):
            if mine != theirs:
                break
            shared += 1
        return (shared // self._block_size) * self._block_size

    def score(self, request: SubmitRequest) -> ScoreReply:
        cached = self._shared_prefix_tokens(request.user_id, request.token_ids)
        result = self._model.prefill_hybrid(
            list(request.token_ids),
            options=ChunkedExecutionOptions(chunk_tokens=self._chunk_tokens),
        )
        token_ids = {output: self._output_token_id(output) for output in request.allowed_outputs}
        probabilities = result.constrained_probabilities(list(token_ids.values()))
        by_output = tuple(
            (output, probabilities[token_id]) for output, token_id in token_ids.items()
        )
        previous = self._prefixes.get(request.user_id)
        if previous is None or len(request.token_ids) > len(previous.token_ids):
            self._prefixes[request.user_id] = _CachedPrefix(token_ids=request.token_ids)
        return ScoreReply(
            request_id=request.request_id,
            probabilities=by_output,
            prompt_tokens=len(request.token_ids),
            cached_prompt_tokens=cached,
        )


class PrefillOnlyFrontend:
    """In-process OpenAI-compatible frontend for prefill-only requests.

    Args:
        backend: Scoring backend (defaults to the micro-transformer).
        tokenizer: Prompt tokenizer (defaults to the synthetic tokenizer with
            the backend's vocabulary size when the default backend is used).
        model_name: Name echoed in responses.
    """

    def __init__(self, backend: ScoringBackend | None = None,
                 tokenizer: SyntheticTokenizer | None = None,
                 model_name: str = "prefillonly-micro") -> None:
        self._backend = backend if backend is not None else MicroModelBackend()
        if tokenizer is not None:
            self._tokenizer = tokenizer
        elif isinstance(self._backend, MicroModelBackend):
            # Match the tokenizer's id space to the scoring model's vocabulary.
            self._tokenizer = SyntheticTokenizer(
                vocab_size=self._backend._model.config.vocab_size
            )
        else:
            self._tokenizer = SyntheticTokenizer()
        self._model_name = model_name
        self._channel = InProcessChannel()
        self._id_counter = itertools.count()
        self._requests_served = 0

    @property
    def requests_served(self) -> int:
        return self._requests_served

    @property
    def channel(self) -> InProcessChannel:
        """The frontend/scheduler message channel (exposed for inspection)."""
        return self._channel

    # ------------------------------------------------------------- handlers

    def handle_completion(self, payload: dict) -> dict:
        """Handle one ``/v1/completions``-style payload and return the response body."""
        request = parse_completion_request(payload)
        response = self.complete(request)
        return response.to_dict()

    def complete(self, request: CompletionRequest) -> CompletionResponse:
        """Typed entry point: score one :class:`CompletionRequest`."""
        request_id = request.request_id or f"prefillonly-{next(self._id_counter)}"
        token_ids = tuple(self._tokenizer.encode(request.prompt))

        submit = SubmitRequest(
            request_id=request_id,
            user_id=request.user,
            token_ids=token_ids,
            allowed_outputs=request.allowed_outputs,
        )
        # Cross the serialisation boundary exactly as the ZeroMQ deployment would.
        self._channel.send(submit)
        wire_message = self._channel.receive()
        reply = self._backend.score(SubmitRequest.from_dict(wire_message))

        probabilities = tuple(
            TokenProbability(token=token, probability=probability)
            for token, probability in reply.probabilities
        )
        best = max(probabilities, key=lambda entry: entry.probability)
        self._requests_served += 1
        return CompletionResponse(
            request_id=reply.request_id,
            model=self._model_name,
            choice=CompletionChoice(text=best.token, probabilities=probabilities),
            usage=UsageInfo(prompt_tokens=reply.prompt_tokens),
            cached_prompt_tokens=reply.cached_prompt_tokens,
            latency_seconds=reply.latency_seconds,
        )

    def score(self, prompt: str, *, allowed_outputs: tuple[str, ...] = ("Yes", "No"),
              user: str = "default") -> dict[str, float]:
        """Convenience wrapper: return {output: probability} for one prompt."""
        response = self.complete(CompletionRequest(
            prompt=prompt, allowed_outputs=allowed_outputs, user=user,
        ))
        return {entry.token: entry.probability for entry in response.choice.probabilities}
