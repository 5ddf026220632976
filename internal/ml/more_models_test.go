package ml

import (
	"math"
	"math/rand"
	"testing"
)

func TestGaussianNBLearns(t *testing.T) {
	x, y := synthLinear(400, 5, 21)
	m := NewGaussianNB()
	if err := fitRows(m, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, predictRows(m, x)); auc < 0.85 {
		t.Errorf("NB AUC=%.3f, want >= 0.85", auc)
	}
	if m.SizeBytes() <= 0 {
		t.Error("SizeBytes should be positive")
	}
}

func TestGaussianNBSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := make([][]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		if i%2 == 0 {
			x[i] = []float64{rng.NormFloat64() - 3}
		} else {
			x[i] = []float64{rng.NormFloat64() + 3}
			y[i] = 1
		}
	}
	m := NewGaussianNB()
	if err := fitRows(m, x, y); err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(y, predictRows(m, x)); acc < 0.98 {
		t.Errorf("well-separated accuracy=%.3f", acc)
	}
}

func TestLinearSVMLearns(t *testing.T) {
	x, y := synthLinear(400, 5, 23)
	m := NewLinearSVM(1)
	m.MaxIter = 200
	if err := fitRows(m, x, y); err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if auc := AUCROC(y, predictRows(m, x)); auc < 0.9 {
		t.Errorf("SVM AUC=%.3f, want >= 0.9", auc)
	}
}

func TestLinearSVMWarmstart(t *testing.T) {
	x, y := synthLinear(300, 4, 24)
	donor := NewLinearSVM(1)
	donor.MaxIter = 300
	if err := fitRows(donor, x, y); err != nil {
		t.Fatal(err)
	}
	warm := NewLinearSVM(2)
	warm.MaxIter = 300
	if !warm.WarmstartFrom(donor) {
		t.Fatal("warmstart rejected")
	}
	if err := fitRows(warm, x, y); err != nil {
		t.Fatal(err)
	}
	if warm.EpochsRun >= donor.EpochsRun {
		t.Errorf("warm epochs=%d, cold=%d", warm.EpochsRun, donor.EpochsRun)
	}
	if warm.WarmstartFrom(NewGaussianNB()) {
		t.Error("svm must not warmstart from nb")
	}
}

func TestKMeansRecoverClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	centers := [][]float64{{-5, -5}, {5, 5}, {-5, 5}}
	var x [][]float64
	truth := make([]int, 0)
	for c, cent := range centers {
		for i := 0; i < 60; i++ {
			x = append(x, []float64{cent[0] + rng.NormFloat64()*0.5, cent[1] + rng.NormFloat64()*0.5})
			truth = append(truth, c)
		}
	}
	cols, _ := matrixColumns(x)
	km := NewKMeans(3, 1)
	if err := km.Fit(cols, len(x)); err != nil {
		t.Fatal(err)
	}
	// Transform yields K distances per row, column-major; the nearest
	// centroid is a row's cluster.
	dist := km.Transform(cols, len(x))
	if len(dist) != 3*len(x) {
		t.Fatalf("transform holds %d values, want 3 per row", len(dist))
	}
	assign := make([]int, len(x))
	for i := range assign {
		for c := 1; c < 3; c++ {
			if dist[c*len(x)+i] < dist[assign[i]*len(x)+i] {
				assign[i] = c
			}
		}
	}
	// All points of a true cluster must share an assignment, and the
	// three assignments must be distinct.
	labelOf := map[int]int{}
	for i, a := range assign {
		tc := truth[i]
		if prev, ok := labelOf[tc]; ok {
			if prev != a {
				t.Fatalf("cluster %d split between %d and %d", tc, prev, a)
			}
		} else {
			labelOf[tc] = a
		}
	}
	if len(map[int]bool{labelOf[0]: true, labelOf[1]: true, labelOf[2]: true}) != 3 {
		t.Error("clusters merged")
	}
	if math.IsNaN(dist[0]) {
		t.Error("NaN distance")
	}
}

func TestKMeansEdgeCases(t *testing.T) {
	km := NewKMeans(10, 1)
	cols, _ := matrixColumns([][]float64{{1}, {2}, {3}})
	if err := km.Fit(cols, 3); err != nil {
		t.Fatal(err)
	}
	if len(km.Centroids) != 3 {
		t.Errorf("K should clamp to row count, got %d", len(km.Centroids))
	}
	if err := NewKMeans(2, 1).Fit(nil, 0); err == nil {
		t.Error("empty fit should error")
	}
}

func TestNewModelsRejectBadInput(t *testing.T) {
	if err := NewGaussianNB().Fit(nil, nil, nil); err == nil {
		t.Error("nb empty fit should error")
	}
	if err := fitRows(NewLinearSVM(1), [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("svm mismatched fit should error")
	}
}
