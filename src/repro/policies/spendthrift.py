"""The Spendthrift learned backup policy.

The paper deploys a "lightweight neural network to predict when to back
up [23], representative of JIT schemes deployed commercially", trained
offline (PyTorch) on oracle decisions over 7 voltage traces and tested
on 3, reaching ~97% accuracy.

We re-implement the same idea without PyTorch: a two-layer MLP written
in numpy, trained with full-batch gradient descent on synthetic oracle
labels.  The device cannot read its stored energy exactly (the JIT
oracle can); it sees a *noisy* voltage measurement plus the trace's
observable environment voltage, and must decide "back up now or keep
going".  Mispredicting late causes a real power failure (dead energy);
mispredicting early wastes the rest of the period's charge — the same
failure modes that make Spendthrift save less than JIT in Figure 10.
"""

import numpy as np

from repro.policies.base import BackupPolicy, PolicyAction, TunableSpec

#: Std-dev of the capacitor-voltage measurement noise (fraction units).
MEASUREMENT_NOISE = 0.05
#: Extra safety margin the oracle labels include, as a capacity fraction.
#: Sized a few measurement-noise sigmas wide so that *late* predictions
#: (which cause real power failures) are rare while early ones only
#: waste a sliver of the period's charge.
LABEL_MARGIN = 0.06
#: How often (cycles) the device samples its ADC and runs the model.
CHECK_INTERVAL_CYCLES = 100

#: Between checks the policy ignores energy: its guard never fails the
#: floor test.
_NO_FLOOR = float("-inf")

#: Per-sample ADC jitter sigma (hoisted: same value every check).
_SAMPLE_NOISE = MEASUREMENT_NOISE / 4


class MlpModel:
    """A tiny 2-layer MLP binary classifier (numpy, CPU, no autograd)."""

    def __init__(self, weights1, bias1, weights2, bias2):
        self.weights1 = weights1
        self.bias1 = bias1
        self.weights2 = weights2
        self.bias2 = bias2

    def logits(self, features):
        hidden = np.tanh(features @ self.weights1 + self.bias1)
        return hidden @ self.weights2 + self.bias2

    def predict(self, features):
        return self.logits(features) > 0.0


def _oracle_dataset(rng, samples):
    """Synthetic (features, label) pairs replicating oracle decisions.

    Features: [noisy stored-energy fraction, backup-cost fraction,
    environment voltage].  Label: 1 iff the *true* stored fraction is
    within (cost + margin) of empty — i.e. the oracle would back up.
    """
    true_fraction = rng.uniform(0.0, 1.0, samples)
    cost_fraction = rng.uniform(0.02, 0.5, samples)
    env = rng.uniform(0.0, 1.0, samples)
    measured = true_fraction + rng.normal(0.0, MEASUREMENT_NOISE, samples)
    labels = (true_fraction <= cost_fraction + LABEL_MARGIN).astype(float)
    features = np.stack([measured, cost_fraction, env], axis=1)
    return features, labels


def train_spendthrift_model(
    seed=1234, hidden=8, samples=6000, epochs=400, learning_rate=0.5
):
    """Train the MLP offline; returns ``(model, heldout_accuracy)``.

    Mirrors the paper's protocol: train on one batch of traces, report
    accuracy on held-out samples (~97%).
    """
    rng = np.random.default_rng(seed)
    features, labels = _oracle_dataset(rng, samples)
    test_features, test_labels = _oracle_dataset(rng, samples // 3)

    w1 = rng.normal(0.0, 0.5, (features.shape[1], hidden))
    b1 = np.zeros(hidden)
    w2 = rng.normal(0.0, 0.5, hidden)
    b2 = 0.0
    n = len(labels)
    for _ in range(epochs):
        hidden_act = np.tanh(features @ w1 + b1)
        logits = hidden_act @ w2 + b2
        probs = 1.0 / (1.0 + np.exp(-logits))
        grad_logits = (probs - labels) / n
        grad_w2 = hidden_act.T @ grad_logits
        grad_b2 = grad_logits.sum()
        grad_hidden = np.outer(grad_logits, w2) * (1.0 - hidden_act**2)
        grad_w1 = features.T @ grad_hidden
        grad_b1 = grad_hidden.sum(axis=0)
        w1 -= learning_rate * grad_w1
        b1 -= learning_rate * grad_b1
        w2 -= learning_rate * grad_w2
        b2 -= learning_rate * grad_b2

    model = MlpModel(w1, b1, w2, b2)
    accuracy = float(
        np.mean(model.predict(test_features) == (test_labels > 0.5))
    )
    return model, accuracy


_CACHED_MODEL = None


def default_model():
    """The lazily trained, process-cached default model."""
    global _CACHED_MODEL
    if _CACHED_MODEL is None:
        _CACHED_MODEL = train_spendthrift_model()[0]
    return _CACHED_MODEL


class SpendthriftPolicy(BackupPolicy):
    name = "spendthrift"

    tunables = (
        TunableSpec(
            name="check_interval",
            default=CHECK_INTERVAL_CYCLES,
            grid=(25, 50, 200, 400),
            description=(
                "cycles between ADC samples / model inferences; frequent "
                "checks catch the shutdown point precisely but model a "
                "busier (costlier-to-deploy) predictor, sparse checks "
                "risk predicting late and dying"
            ),
        ),
    )

    def __init__(self, model=None, seed=7, check_interval=CHECK_INTERVAL_CYCLES):
        if check_interval <= 0:
            raise ValueError("check_interval must be positive")
        self.model = model
        self.check_interval = check_interval
        # Guard budgets never exceed the check interval (see decide):
        # declares the window-length cap so replay can size batching.
        self.quantum_budget_hint = check_interval
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._since_check = 0
        self._env = 0.5
        self._offset = 0.0
        # Reused feature buffer: refilled in place each check, so the
        # per-check ndarray allocation disappears from the hot path.
        self._features = np.empty(3, dtype=np.float64)

    def reset(self, platform):
        if self.model is None:
            self.model = default_model()
        self._rng = np.random.default_rng(self._seed)
        self._since_check = 0

    def on_period_start(self, platform, conditions):
        self._env = conditions.env_voltage
        self._since_check = 0
        # The ADC measurement error is calibration-like: it drifts per
        # wake-up, not per sample.  (Fresh i.i.d. noise every check
        # would make repeated sampling near the threshold effectively
        # oracle-accurate — the policy would never predict late.)
        self._offset = float(self._rng.normal(0.0, MEASUREMENT_NOISE))

    def after_step(self, platform, cycles):
        self._since_check += cycles
        if self._since_check < self.check_interval:
            return PolicyAction.NONE
        self._since_check = 0
        capacitor = platform.capacitor
        arch = platform.arch
        measured = capacitor.fraction + self._offset + float(
            self._rng.normal(0.0, _SAMPLE_NOISE)
        )
        cost_fraction = (
            arch.estimate_backup_cost() + arch.worst_step_cost()
        ) / capacitor.capacity
        features = self._features
        features[0] = measured
        features[1] = cost_fraction
        features[2] = self._env
        if self.model.predict(features):
            return PolicyAction.SHUTDOWN
        return PolicyAction.NONE

    def decide(self, platform, cycles):
        """NN check plus a cycle-budget guard between checks.

        Between checks the decision is a pure cycle-counter compare
        (the RNG and model are only consulted when ``_since_check``
        reaches ``check_interval``), so the loop may skip the policy for
        ``check_interval - _since_check`` cycles; ``_resync``
        reconstructs the counter at revoke.  A power failure drops the
        guard without resync — ``on_period_start`` zeroes the counter
        and redraws the calibration offset exactly as in the reference
        loop.
        """
        action = self.after_step(platform, cycles)
        if action == PolicyAction.NONE:
            return action, (
                _NO_FLOOR,
                0.0,
                self.check_interval - self._since_check,
                self._resync,
            )
        return action, None

    def _resync(self, skipped_cycles):
        self._since_check += skipped_cycles
