"""Credit verification workload (Table 1, second row).

The scenario from §7.1 of the paper: a bank asks the LLM to verify one user's
credit from roughly ten months of credit history.  Each user issues a single
request of 40,000-60,000 tokens, so there is essentially no prefix reuse and
the workload stresses the engine's maximum input length and long-request
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadSpecError
from repro.spec.core import spec_field, spec_model
from repro.workloads.trace import Request, TokenSegment, TokenSequence, WorkloadTrace

_SYSTEM_PROMPT_ID = 2
_HISTORY_BASE = 20_000_000
_QUESTION_BASE = 30_000_000


@spec_model(error=WorkloadSpecError, path="workload_params")
@dataclass(frozen=True)
class CreditVerificationWorkload:
    """Generator for the credit verification trace.

    Attributes mirror the paper's dataset parameters: 60 users, one request per
    user, ten months of history at 4,000-6,000 tokens per month.  Their
    declared types and minimums check the generator when it is built and a
    scenario's ``workload_params`` when it is parsed.
    """

    num_users: int = spec_field(default=60, types=int, minimum=1)
    months_of_history: int = spec_field(default=10, types=int, minimum=1)
    month_min_tokens: int = spec_field(default=4_000, types=int, minimum=1)
    month_max_tokens: int = spec_field(default=6_000, types=int, minimum=1)
    system_prompt_tokens: int = spec_field(default=256, types=int, minimum=1)
    question_tokens: int = spec_field(default=32, types=int, minimum=1)
    seed: int = spec_field(default=0, types=int, minimum=0)

    name = "credit-verification"

    def __spec_validate__(self, path: str) -> None:
        if self.month_min_tokens > self.month_max_tokens:
            raise WorkloadSpecError(
                f"month_min_tokens ({self.month_min_tokens}) must not exceed "
                f"month_max_tokens ({self.month_max_tokens})",
                path=f"{path}.month_min_tokens",
            )

    def history_length(self, rng: np.random.Generator) -> int:
        """Draw one user's total credit-history length in tokens."""
        months = rng.integers(self.month_min_tokens, self.month_max_tokens + 1,
                              size=self.months_of_history)
        return int(months.sum())

    def generate(self) -> WorkloadTrace:
        """Generate the full trace (one request per user)."""
        rng = np.random.default_rng(self.seed)
        requests: list[Request] = []
        for user_index in range(self.num_users):
            history_tokens = self.history_length(rng)
            sequence = TokenSequence([
                TokenSegment(_SYSTEM_PROMPT_ID, self.system_prompt_tokens),
                TokenSegment(_HISTORY_BASE + user_index, history_tokens),
                TokenSegment(_QUESTION_BASE + user_index, self.question_tokens),
            ])
            requests.append(Request(
                request_id=user_index,
                user_id=f"applicant-{user_index:04d}",
                sequence=sequence,
                allowed_outputs=("Approve", "Reject"),
                metadata={
                    "history_tokens": history_tokens,
                    "months_of_history": self.months_of_history,
                },
            ))
        description = {
            "why": "evaluate PrefillOnly under long input length",
            "months_of_history": self.months_of_history,
            "history_token_range": (
                self.months_of_history * self.month_min_tokens,
                self.months_of_history * self.month_max_tokens,
            ),
        }
        return WorkloadTrace(name=self.name, requests=requests, description=description)
