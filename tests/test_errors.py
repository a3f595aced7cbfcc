import pytest

from minorforge.errors import SizeGuardError, check_size, guard_limit


class TestGuardOverride:
    def test_unset_or_empty_keeps_default(self, monkeypatch):
        monkeypatch.delenv("FORGE_GUARD_OVERRIDE", raising=False)
        assert guard_limit(9) == 9
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "")
        assert guard_limit(9) == 9

    def test_positive_multiplier_scales(self, monkeypatch):
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", "3")
        assert guard_limit(9) == 27
        check_size(27, 9, "order")
        with pytest.raises(SizeGuardError):
            check_size(28, 9, "order")

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5"])
    def test_invalid_multiplier_raises(self, monkeypatch, raw):
        monkeypatch.setenv("FORGE_GUARD_OVERRIDE", raw)
        with pytest.raises(ValueError, match="FORGE_GUARD_OVERRIDE"):
            guard_limit(9)
