"""Post recommendation workload (Table 1, first row).

The scenario from §2.3 / §7.1 of the paper: a social-media platform asks the
LLM, for each of 50 candidate posts per user, "would this user be interested in
this post?".  Every request for the same user shares a long prefix (the system
prompt, the user profile, and the browsing history), followed by a short,
request-specific post and question — so the workload exercises the prefix cache
and the scheduler's cache-aware calibration.

Paper parameters reproduced here:

* 20 users;
* user profile + history length drawn from Normal(14,000, 3,000) tokens,
  clipped to the paper's reported 11,000-17,000 range;
* 50 candidate posts per user, 150 tokens each;
* total tokens ≈ 14 million.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadSpecError
from repro.spec.core import spec_field, spec_model
from repro.workloads.trace import Request, TokenSegment, TokenSequence, WorkloadTrace

#: Content-id namespaces keep segment ids from different roles disjoint.
_SYSTEM_PROMPT_ID = 1
_PROFILE_BASE = 10_000
_POST_BASE = 1_000_000
_QUESTION_BASE = 5_000_000


@spec_model(error=WorkloadSpecError, path="workload_params")
@dataclass(frozen=True)
class PostRecommendationWorkload:
    """Generator for the post recommendation trace.

    Attributes mirror the paper's dataset parameters; shrink ``num_users`` or
    ``posts_per_user`` for fast tests.  Their declared types and minimums
    check the generator when it is built and a scenario's ``workload_params``
    when it is parsed.
    """

    num_users: int = spec_field(default=20, types=int, minimum=1)
    posts_per_user: int = spec_field(default=50, types=int, minimum=1)
    post_tokens: int = spec_field(default=150, types=int, minimum=1)
    profile_mean_tokens: int = spec_field(default=14_000, types=int, minimum=1)
    profile_std_tokens: int = spec_field(default=3_000, types=int, minimum=0)
    profile_min_tokens: int = spec_field(default=11_000, types=int, minimum=1)
    profile_max_tokens: int = spec_field(default=17_000, types=int, minimum=1)
    system_prompt_tokens: int = spec_field(default=128, types=int, minimum=1)
    question_tokens: int = spec_field(default=16, types=int, minimum=1)
    seed: int = spec_field(default=0, types=int, minimum=0)

    name = "post-recommendation"

    def __spec_validate__(self, path: str) -> None:
        if self.profile_min_tokens > self.profile_max_tokens:
            raise WorkloadSpecError(
                f"profile_min_tokens ({self.profile_min_tokens}) must not exceed "
                f"profile_max_tokens ({self.profile_max_tokens})",
                path=f"{path}.profile_min_tokens",
            )

    def profile_length(self, rng: np.random.Generator) -> int:
        """Draw one user-profile length from the paper's distribution."""
        length = rng.normal(self.profile_mean_tokens, self.profile_std_tokens)
        return int(np.clip(length, self.profile_min_tokens, self.profile_max_tokens))

    def generate(self) -> WorkloadTrace:
        """Generate the full trace (requests are grouped by user, unordered in time)."""
        rng = np.random.default_rng(self.seed)
        requests: list[Request] = []
        request_id = 0
        for user_index in range(self.num_users):
            user_id = f"user-{user_index:04d}"
            profile_tokens = self.profile_length(rng)
            shared_prefix = (
                TokenSegment(_SYSTEM_PROMPT_ID, self.system_prompt_tokens),
                TokenSegment(_PROFILE_BASE + user_index, profile_tokens),
            )
            for post_index in range(self.posts_per_user):
                post_content_id = _POST_BASE + user_index * self.posts_per_user + post_index
                sequence = TokenSequence([
                    *shared_prefix,
                    TokenSegment(post_content_id, self.post_tokens),
                    TokenSegment(_QUESTION_BASE + request_id, self.question_tokens),
                ])
                requests.append(Request(
                    request_id=request_id,
                    user_id=user_id,
                    sequence=sequence,
                    allowed_outputs=("Yes", "No"),
                    metadata={
                        "post_index": post_index,
                        "profile_tokens": profile_tokens,
                        "shared_prefix_tokens": self.system_prompt_tokens + profile_tokens,
                    },
                ))
                request_id += 1
        description = {
            "why": "evaluate PrefillOnly under frequent prefix cache reuse",
            "posts_per_user": self.posts_per_user,
            "post_tokens": self.post_tokens,
            "profile_token_range": (self.profile_min_tokens, self.profile_max_tokens),
        }
        return WorkloadTrace(name=self.name, requests=requests, description=description)
