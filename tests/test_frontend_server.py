"""Tests for the frontend server, RPC boundary, and micro-model backend."""

import pytest

from repro.frontend.api import CompletionRequest
from repro.frontend.rpc import InProcessChannel, RPCError, ScoreReply, SubmitRequest
from repro.frontend.server import MicroModelBackend, PrefillOnlyFrontend, ScoringBackend


PROMPT = (
    "Here is the user profile: reads systems papers about GPU scheduling. "
    "Should we recommend the article about KV cache management? Your answer is:"
)


# ----------------------------------------------------------------- RPC layer

def test_submit_request_round_trip():
    message = SubmitRequest(request_id="r1", user_id="u1", token_ids=(1, 2, 3),
                            allowed_outputs=("Yes", "No"), arrival_time=1.5)
    restored = SubmitRequest.from_dict(message.to_dict())
    assert restored == message


def test_score_reply_round_trip():
    reply = ScoreReply(request_id="r1", probabilities=(("Yes", 0.6), ("No", 0.4)),
                       prompt_tokens=12, cached_prompt_tokens=8, latency_seconds=0.25)
    restored = ScoreReply.from_dict(reply.to_dict())
    assert restored == reply


def test_wrong_message_type_rejected():
    with pytest.raises(RPCError):
        SubmitRequest.from_dict({"type": "score"})
    with pytest.raises(RPCError):
        ScoreReply.from_dict({"type": "submit"})


def test_channel_is_fifo_and_counts():
    channel = InProcessChannel()
    channel.send(SubmitRequest("a", "u", (1,), ("Yes", "No")))
    channel.send(SubmitRequest("b", "u", (2,), ("Yes", "No")))
    first = channel.receive()
    assert first["request_id"] == "a"
    assert channel.sent == 2 and channel.received == 1
    assert len(channel) == 1


def test_channel_empty_receive_raises():
    with pytest.raises(RPCError):
        InProcessChannel().receive()


# ----------------------------------------------------------------- frontend

@pytest.fixture(scope="module")
def frontend():
    return PrefillOnlyFrontend()


def test_handle_completion_returns_openai_shape(frontend):
    body = frontend.handle_completion({"prompt": PROMPT, "user": "alice"})
    assert body["object"] == "text_completion"
    assert body["choices"][0]["text"] in {"Yes", "No"}
    top = body["choices"][0]["logprobs"]["top_logprobs"][0]
    assert set(top) == {"Yes", "No"}
    assert sum(top.values()) == pytest.approx(1.0)
    assert body["usage"]["prompt_tokens"] > 10


def test_scores_are_deterministic(frontend):
    first = frontend.score(PROMPT, user="bob")
    second = frontend.score(PROMPT, user="bob")
    assert first == second


def test_custom_allowed_outputs(frontend):
    scores = frontend.score("approve this credit application? answer:",
                            allowed_outputs=("Approve", "Reject"), user="carol")
    assert set(scores) == {"Approve", "Reject"}
    assert sum(scores.values()) == pytest.approx(1.0)


def test_repeat_prompts_from_same_user_report_cache_hits(frontend):
    long_prefix = "profile details " * 200
    first = frontend.complete(CompletionRequest(prompt=long_prefix + " post one. answer:",
                                                user="dave"))
    second = frontend.complete(CompletionRequest(prompt=long_prefix + " post two. answer:",
                                                 user="dave"))
    assert first.cached_prompt_tokens == 0
    assert second.cached_prompt_tokens > 0
    assert second.cached_prompt_tokens <= second.usage.prompt_tokens


def test_cache_affinity_is_per_user(frontend):
    long_prefix = "browsing history " * 200
    frontend.complete(CompletionRequest(prompt=long_prefix + " item a. answer:", user="erin"))
    other_user = frontend.complete(CompletionRequest(prompt=long_prefix + " item b. answer:",
                                                     user="frank"))
    assert other_user.cached_prompt_tokens == 0


def test_request_ids_unique_and_served_counter(frontend):
    before = frontend.requests_served
    a = frontend.complete(CompletionRequest(prompt="question one? answer:"))
    b = frontend.complete(CompletionRequest(prompt="question two? answer:"))
    assert a.request_id != b.request_id
    assert frontend.requests_served == before + 2


def test_caller_supplied_request_id_is_echoed(frontend):
    response = frontend.complete(CompletionRequest(prompt="hello? answer:", request_id="my-id"))
    assert response.request_id == "my-id"


def test_validation_errors_propagate(frontend):
    from repro.frontend.api import APIValidationError

    with pytest.raises(APIValidationError):
        frontend.handle_completion({"prompt": "hi", "max_tokens": 4})


def test_messages_cross_the_serialisation_boundary(frontend):
    sent_before = frontend.channel.sent
    frontend.score("does the boundary count messages? answer:", user="gina")
    assert frontend.channel.sent == sent_before + 1
    assert len(frontend.channel) == 0  # everything sent was also consumed


# ------------------------------------------------------------ custom backend

class _ConstantBackend(ScoringBackend):
    """Test double returning a fixed distribution."""

    def score(self, request: SubmitRequest) -> ScoreReply:
        return ScoreReply(
            request_id=request.request_id,
            probabilities=tuple((token, 1.0 / len(request.allowed_outputs))
                                for token in request.allowed_outputs),
            prompt_tokens=len(request.token_ids),
        )


def test_frontend_accepts_custom_backend():
    frontend = PrefillOnlyFrontend(backend=_ConstantBackend(), model_name="stub")
    scores = frontend.score("anything? answer:", allowed_outputs=("A", "B", "C", "D"))
    assert all(value == pytest.approx(0.25) for value in scores.values())


def test_micro_backend_output_token_mapping_is_stable():
    backend = MicroModelBackend(seed=1)
    assert backend._output_token_id("Yes") == backend._output_token_id("Yes")
    assert backend._output_token_id("Yes") != backend._output_token_id("No")

